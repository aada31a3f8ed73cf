"""Receiver-type resolution shared by the checkers.

Name-only call resolution is what made the first iteration of these
checkers noisy: `out.flush()` on a std::ofstream is not
`FileHandle::flush()`, `jobsRun.load()` on a std::atomic is not
`ResultStore::load()`, and a local `corrupt` lambda is not the trace
subsystem's corrupt(). The cure is cheap nominal typing: know the
declared type of every member variable, parameter, and local, and
only match a member call to a modeled class when the receiver's type
word actually names that class. Anything unresolvable matches
NOTHING — a skipped call can only under-report, a misresolved one
invents findings.
"""

from .cppsem import find_calls
from .model import Block, Stmt

_QUALIFIERS = {"const", "static", "mutable", "constexpr", "inline",
               "volatile", "std", "vpsim", "io", "trace",
               "sim"}


def type_word(type_text):
    """The class-ish head of a declared type: last identifier before
    any template argument list, qualifiers stripped. `std::atomic<bool>`
    -> "atomic", `const Mutex &` -> "Mutex"."""
    head = type_text.split("<")[0]
    for junk in ("::", "&", "*", "[", "]"):
        head = head.replace(junk, " ")
    parts = [p for p in head.split() if p not in _QUALIFIERS]
    return parts[-1] if parts else None


class TypeEnv:
    def __init__(self, model):
        self.model = model
        self.member_types = {}  # (class, var) -> type word
        self.global_types = {}  # var -> type word
        self.classes = set()    # classes the model actually defines
        for sm in model.files.values():
            for var in sm.member_vars:
                word = type_word(var.type_text)
                if word is None:
                    continue
                if var.class_name:
                    self.member_types[(var.class_name, var.name)] = \
                        word
                else:
                    self.global_types[var.name] = word
            for fn in sm.functions:
                if fn.class_name:
                    self.classes.add(fn.class_name)
            for var in sm.member_vars:
                if var.class_name:
                    self.classes.add(var.class_name)

    def locals_of(self, fn):
        """{name: type word | "?"} for parameters and body-declared
        locals of @p fn. "?" marks names that exist but whose type is
        unknown (auto, lambdas, structured bindings): they must still
        SHADOW outer names rather than resolve to them."""
        env = {}
        for type_text, name in fn.params:
            if name:
                env[name] = type_word(type_text) or "?"
        if fn.body is not None:
            _scan_locals(fn.body, self.classes, env)
        return env

    def receiver_class(self, fn, receiver, local_env):
        """The modeled class a member call on @p receiver dispatches
        to, or None when unresolvable (std types, chains, unknowns)."""
        if receiver is None:
            return None
        if receiver == "this":
            return fn.class_name
        if "." in receiver or "(" in receiver or "[" in receiver:
            return None  # chains: punt rather than guess
        word = local_env.get(receiver)
        if word is None and fn.class_name:
            word = self.member_types.get((fn.class_name, receiver))
        if word is None:
            word = self.global_types.get(receiver)
        if word in self.classes:
            return word
        return None


def _scan_locals(block, classes, env):
    for item in block.items:
        if isinstance(item, Block):
            if item.header:
                _scan_decl_tokens(item.header, classes, env)
            _scan_locals(item, classes, env)
            continue
        _scan_decl_tokens(item.tokens, classes, env)
        for sub in item.sub_blocks:
            _scan_locals(sub, classes, env)


def _scan_decl_tokens(tokens, classes, env):
    """Record `T name ...` and `auto name = ...` declarations. Only
    the Type-Name adjacency matters; initializers are not typed."""
    i = 0
    n = len(tokens)
    while i < n - 1:
        tok = tokens[i]
        if tok.kind != "ident":
            i += 1
            continue
        if tok.text == "auto":
            j = i + 1
            while j < n and tokens[j].text in ("&", "*", "const"):
                j += 1
            if j < n and tokens[j].kind == "ident":
                env[tokens[j].text] = "?"
                i = j + 1
                continue
        if tok.text in classes or tok.text == "const":
            base = tok.text
            j = i + 1
            while j < n and tokens[j].text in ("&", "*", "const"):
                j += 1
            if base != "const" and j < n and \
                    tokens[j].kind == "ident" and j + 1 < n and \
                    tokens[j + 1].text in ("=", "(", "{", ";", ","):
                env[tokens[j].text] = base
                i = j + 1
                continue
        i += 1


def lambda_locals(fn):
    """Names bound to lambdas in @p fn's body (`auto f = [...]...`):
    calls through them must never resolve to a same-named free
    function elsewhere in the model."""
    names = set()
    if fn.body is None:
        return names
    _scan_lambda_names(fn.body, names)
    return names


def _scan_lambda_names(block, names):
    for item in block.items:
        if isinstance(item, Block):
            _scan_lambda_names(item, names)
            continue
        texts = [t.text for t in item.tokens]
        for k in range(len(texts) - 3):
            if texts[k] in ("auto", "const") and k + 2 < len(texts) \
                    and texts[k + 2] == "=" and \
                    item.tokens[k + 1].kind == "ident":
                rest = texts[k + 3:k + 5]
                if rest[:1] == ["["]:
                    names.add(texts[k + 1])
        for sub in item.sub_blocks:
            _scan_lambda_names(sub, names)


# find_calls imported for checkers that pair resolution with call
# extraction; re-exported to keep their import surface small.
__all__ = ["TypeEnv", "type_word", "lambda_locals", "find_calls"]
