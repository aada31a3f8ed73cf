"""The semantic model both frontends produce and all checkers consume.

Deliberately small: it captures exactly the facts the four checkers
need — function definitions with structured bodies, declarations and
their types, thread-safety annotations, enums with evaluated values —
not general C++ semantics. A checker never sees tokens it did not ask
for, and never knows whether libclang or the internal parser built the
model.
"""


class Stmt:
    """One statement: its tokens (excluding any nested brace groups)
    plus the parsed brace groups (lambda bodies, brace-init lists) as
    sub-blocks, in source order."""

    __slots__ = ("tokens", "line", "sub_blocks")

    def __init__(self, tokens, line, sub_blocks=None):
        self.tokens = tokens
        self.line = line
        self.sub_blocks = sub_blocks or []

    def text(self):
        return " ".join(t.text for t in self.tokens)

    def __repr__(self):
        return "Stmt(%r @%d)" % (self.text()[:60], self.line)


class Block:
    """A structured region of a function body.

    kind: "compound" | "if" | "else" | "while" | "for" | "dowhile"
          | "switch" | "case" | "lambda"
    header: condition / loop-header / case-label tokens ([] otherwise)
    items: ordered Stmt and Block children
    """

    __slots__ = ("kind", "header", "items", "line")

    def __init__(self, kind, header, items, line):
        self.kind = kind
        self.header = header
        self.items = items
        self.line = line

    def __repr__(self):
        return "Block(%s @%d, %d items)" % (self.kind, self.line,
                                            len(self.items))


class FunctionDef:
    """A function definition (or bodyless declaration when body is
    None, kept for the Status-returning-function index)."""

    __slots__ = ("name", "qualname", "class_name", "file", "line",
                 "return_tokens", "param_tokens", "body",
                 "annotations", "params")

    def __init__(self, name, qualname, class_name, file, line,
                 return_tokens, param_tokens, body, annotations):
        self.name = name
        self.qualname = qualname          # e.g. "vpsim::classifyExit"
        self.class_name = class_name      # innermost class, or None
        self.file = file
        self.line = line
        self.return_tokens = return_tokens
        self.param_tokens = param_tokens  # raw tokens between ( )
        self.body = body                  # Block("compound") or None
        # {"requires": [expr], "excludes": [...], "acquire": [...],
        #  "release": [...]} — normalized lock expressions.
        self.annotations = annotations
        self.params = parse_params(param_tokens)

    def returns_status_by_value(self):
        toks = [t.text for t in self.return_tokens
                if t.text not in ("const", "inline", "static",
                                  "virtual", "constexpr", "friend",
                                  "vpsim", "io", "::")]
        return toks[-1:] == ["Status"] and not any(
            t.text in ("&", "*") for t in self.return_tokens)

    def __repr__(self):
        return "FunctionDef(%s @%s:%d)" % (self.qualname, self.file,
                                           self.line)


class VarDecl:
    """A member or global variable declaration."""

    __slots__ = ("name", "type_text", "file", "line", "class_name")

    def __init__(self, name, type_text, file, line, class_name):
        self.name = name
        self.type_text = type_text
        self.file = file
        self.line = line
        self.class_name = class_name


class EnumDef:
    __slots__ = ("name", "file", "line", "enumerators")

    def __init__(self, name, file, line, enumerators):
        self.name = name
        self.file = file
        self.line = line
        # [(name, value:int|None, line)]
        self.enumerators = enumerators

    def values(self):
        """{enumerator: value} with implicit values filled in."""
        out = {}
        nxt = 0
        for name, value, _line in self.enumerators:
            if value is None:
                value = nxt
            out[name] = value
            nxt = value + 1
        return out


class SourceModel:
    """Everything extracted from one source file."""

    __slots__ = ("path", "raw_lines", "functions", "enums",
                 "member_vars")

    def __init__(self, path, raw_lines):
        self.path = path                  # repo-relative, forward /
        self.raw_lines = raw_lines
        self.functions = []               # FunctionDef (defs + decls)
        self.enums = []                   # EnumDef
        self.member_vars = []             # VarDecl


class Model:
    """The whole-program model: all parsed files plus cross-file
    indexes the checkers share."""

    def __init__(self):
        self.files = {}                   # path -> SourceModel

    def add(self, source_model):
        self.files[source_model.path] = source_model

    # ---- indexes ----------------------------------------------------

    def all_functions(self):
        for sm in self.files.values():
            for fn in sm.functions:
                yield fn

    def all_enums(self):
        for sm in self.files.values():
            for en in sm.enums:
                yield en

    def status_function_names(self):
        """Names (unqualified) of by-value Status-returning functions
        anywhere in the model, split into free/unique names and
        member names grouped by class."""
        names = set()
        for fn in self.all_functions():
            if fn.returns_status_by_value():
                names.add(fn.name)
        return names

    def status_members_by_class(self):
        out = {}
        for fn in self.all_functions():
            if fn.class_name and fn.returns_status_by_value():
                out.setdefault(fn.class_name, set()).add(fn.name)
        return out

    def functions_by_name(self):
        out = {}
        for fn in self.all_functions():
            if fn.body is not None:
                out.setdefault(fn.name, []).append(fn)
        return out

    def subsystem_of(self, path):
        """Top-level subsystem a repo-relative path belongs to:
        "trace" for src/trace/..., "bench" for bench/..., etc."""
        parts = path.split("/")
        if parts[0] == "src" and len(parts) > 1:
            return parts[1]
        return parts[0]


def parse_params(param_tokens):
    """[(type_text, name)] from raw parameter-list tokens. Best-effort:
    splits on top-level commas; the name is the last identifier (or ""
    for unnamed parameters), the type is everything before it."""
    params = []
    depth = 0
    current = []
    groups = []
    for tok in param_tokens:
        if tok.text in "(<[{":
            depth += 1
        elif tok.text in ")>]}":
            depth -= 1
        if tok.text == "," and depth == 0:
            groups.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        groups.append(current)
    for group in groups:
        # Strip default argument.
        cut = len(group)
        depth = 0
        for idx, tok in enumerate(group):
            if tok.text in "(<[{":
                depth += 1
            elif tok.text in ")>]}":
                depth -= 1
            elif tok.text == "=" and depth == 0:
                cut = idx
                break
        group = group[:cut]
        if not group:
            continue
        if group[-1].kind == "ident" and len(group) > 1:
            name = group[-1].text
            type_text = " ".join(t.text for t in group[:-1])
        else:
            name = ""
            type_text = " ".join(t.text for t in group)
        params.append((type_text, name))
    return params


def normalize_lock_expr(text):
    """Canonical spelling of a lock expression: no spaces, no leading
    this->, no trailing parens from e.g. `mutex()` getters."""
    text = text.replace(" ", "")
    if text.startswith("this->"):
        text = text[len("this->"):]
    return text
