/**
 * @file
 * Minimal command-line option parser for the bench and example binaries.
 *
 * Supports "--name value" and "--name=value" forms plus boolean flags.
 * Unknown options are fatal so typos do not silently run the default
 * experiment.
 */

#ifndef VPSIM_COMMON_OPTIONS_HPP
#define VPSIM_COMMON_OPTIONS_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vpsim
{

/** Parsed command-line options with typed accessors and defaults. */
class Options
{
  public:
    /**
     * Declare an option before parsing.
     *
     * @param name Option name without the leading dashes.
     * @param default_value Default used when the option is absent.
     * @param help One-line description for --help output.
     */
    void declare(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /**
     * Register a cross-option validation rule, run at the end of
     * parse() — a bad option *combination* (--resume without
     * --result-store, --cross-check under fault injection) should fail
     * with a one-line usage hint before any trace is captured, not
     * surface as a confusing error forty minutes into a sweep.
     *
     * @param rule Returns an empty string when the parsed options are
     *        acceptable, else the one-line error/usage hint.
     */
    void addValidator(
        std::function<std::string(const Options &)> rule);

    /**
     * Parse argv. Exits with usage text on --help or unknown options,
     * and fatal()s with the rule's hint when a registered validator
     * rejects the parsed combination.
     *
     * @param program_description Shown at the top of --help output.
     */
    void parse(int argc, const char *const *argv,
               const std::string &program_description);

    /** The option was set on the command line (not just defaulted). */
    bool provided(const std::string &name) const;

    /** String value of @p name (declared default if absent). */
    std::string getString(const std::string &name) const;

    /** Integer value of @p name. Fatal on non-numeric input. */
    std::int64_t getInt(const std::string &name) const;

    /** Double value of @p name. Fatal on non-numeric input. */
    double getDouble(const std::string &name) const;

    /** Boolean value: "1/true/yes/on" are true, "0/false/no/off" false. */
    bool getBool(const std::string &name) const;

    /** Comma-separated list value. Empty string yields an empty list. */
    std::vector<std::string> getList(const std::string &name) const;

    /**
     * Canonical "name=value;" string over every declared option (with
     * defaults applied), sorted by name, minus the names in @p exclude.
     * Two runs with the same fingerprint request the same experiment;
     * the result store (sim/result_store.hpp) keys cells by its hash so
     * --resume never reuses cells from a differently-configured sweep.
     */
    std::string fingerprint(
        const std::vector<std::string> &exclude = {}) const;

    /** argv[0] as given to parse() (empty before parsing). */
    const std::string &program() const { return programName; }

  private:
    struct Decl
    {
        std::string defaultValue;
        std::string help;
    };

    std::string usage(const std::string &program_description) const;

    std::map<std::string, Decl> decls;
    std::map<std::string, std::string> values;
    std::vector<std::function<std::string(const Options &)>> validators;
    std::string programName;
};

} // namespace vpsim

#endif // VPSIM_COMMON_OPTIONS_HPP
