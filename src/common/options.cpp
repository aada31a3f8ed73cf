#include "common/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hpp"

namespace vpsim
{

void
Options::declare(const std::string &name, const std::string &default_value,
                 const std::string &help)
{
    decls[name] = {default_value, help};
}

std::string
Options::usage(const std::string &program_description) const
{
    std::ostringstream oss;
    oss << programName << " - " << program_description << "\n\noptions:\n";
    for (const auto &[name, decl] : decls) {
        oss << "  --" << name << " <value>  " << decl.help
            << " (default: " << decl.defaultValue << ")\n";
    }
    return oss.str();
}

void
Options::parse(int argc, const char *const *argv,
               const std::string &program_description)
{
    programName = argc > 0 ? argv[0] : "program";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(program_description).c_str(), stdout);
            std::exit(0);
        }
        fatalIf(arg.size() < 3 || arg.substr(0, 2) != "--",
                "unexpected argument '" + arg + "' (try --help)");
        arg = arg.substr(2);

        std::string name;
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            fatalIf(i + 1 >= argc,
                    "option --" + name + " is missing a value");
            value = argv[++i];
        }
        fatalIf(decls.find(name) == decls.end(),
                "unknown option --" + name + " (try --help)");
        values[name] = value;
    }

    for (const auto &rule : validators) {
        const std::string problem = rule(*this);
        fatalIf(!problem.empty(), problem);
    }
}

void
Options::addValidator(std::function<std::string(const Options &)> rule)
{
    validators.push_back(std::move(rule));
}

bool
Options::provided(const std::string &name) const
{
    return values.find(name) != values.end();
}

std::string
Options::getString(const std::string &name) const
{
    const auto it = values.find(name);
    if (it != values.end())
        return it->second;
    const auto decl = decls.find(name);
    panicIf(decl == decls.end(), "undeclared option queried: " + name);
    return decl->second.defaultValue;
}

std::int64_t
Options::getInt(const std::string &name) const
{
    const std::string text = getString(name);
    char *end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 0);
    fatalIf(end == text.c_str() || *end != '\0',
            "option --" + name + " expects an integer, got '" + text + "'");
    return parsed;
}

double
Options::getDouble(const std::string &name) const
{
    const std::string text = getString(name);
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    fatalIf(end == text.c_str() || *end != '\0',
            "option --" + name + " expects a number, got '" + text + "'");
    return parsed;
}

bool
Options::getBool(const std::string &name) const
{
    const std::string text = getString(name);
    if (text == "1" || text == "true" || text == "yes" || text == "on")
        return true;
    if (text == "0" || text == "false" || text == "no" || text == "off")
        return false;
    fatal("option --" + name + " expects a boolean, got '" + text + "'");
}

std::string
Options::fingerprint(const std::vector<std::string> &exclude) const
{
    std::string out;
    for (const auto &[name, decl] : decls) {
        bool skip = false;
        for (const std::string &excluded : exclude)
            skip = skip || excluded == name;
        if (skip)
            continue;
        out += name + "=" + getString(name) + ";";
    }
    return out;
}

std::vector<std::string>
Options::getList(const std::string &name) const
{
    const std::string text = getString(name);
    std::vector<std::string> items;
    std::string current;
    for (const char ch : text) {
        if (ch == ',') {
            if (!current.empty())
                items.push_back(current);
            current.clear();
        } else {
            current.push_back(ch);
        }
    }
    if (!current.empty())
        items.push_back(current);
    return items;
}

} // namespace vpsim
