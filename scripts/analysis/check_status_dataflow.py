"""status-dataflow: Status values must be consulted and wrapped.

Three contracts from src/common/status.hpp:

  1. A Status produced by a call must be consulted (isOk()/code()/
     message()/returned/passed on) before it dies — a dropped Status is
     a swallowed failure. The bare-call case is the compiler's
     (`[[nodiscard]]` under -Werror=unused-result); this checker
     catches the store-then-ignore case the compiler cannot see:
     `Status s = load(...);` with no later read of `s`.
  2. A stored Status must not be overwritten before it was read:
     `s = stepA(); s = stepB();` silently forgets stepA's failure.
  3. A Status that crosses a subsystem boundary (the callee's home
     subsystem differs from this file's) should be re-raised with
     Status::wrap(...) so the receiving layer adds its own context;
     returning it verbatim loses the call-site provenance the cause
     chain exists to preserve. Statuses minted by src/common are
     exempt (common is the vocabulary, not an origin).

The checker is deliberately optimistic at joins (a read on either
branch counts as a read) so it under-reports rather than nags.
"""

from .model import Block, Stmt
from .cppsem import find_calls, local_decl, top_level_assignment
from .typeenv import TypeEnv, lambda_locals

ID = "status-dataflow"

_FACTORIES = {"ok", "error", "wrap"}


class _Var:
    __slots__ = ("state", "line", "origin", "wrapped")

    def __init__(self, state, line, origin=None):
        self.state = state        # "unread" | "read" | "benign"
        self.line = line
        self.origin = origin      # producing subsystem, or None
        self.wrapped = False

    def copy(self):
        v = _Var(self.state, self.line, self.origin)
        v.wrapped = self.wrapped
        return v


def run(model, report):
    strict = _strict_status_names(model)
    origin_of = _origin_map(model, strict)
    env = TypeEnv(model)
    members = model.status_members_by_class()
    member_origin = _member_origin_map(model)
    for sm in model.files.values():
        subsystem = model.subsystem_of(sm.path)
        for fn in sm.functions:
            if fn.body is None:
                continue
            _Checker(sm, fn, subsystem, strict, origin_of, env,
                     members, member_origin, report).check()


def _strict_status_names(model):
    """Names where EVERY function of that name in the model returns
    Status by value — a call to such a name definitely yields a
    Status, so flagging it can't misfire on an unrelated overload."""
    status, other = set(), set()
    for fn in model.all_functions():
        if fn.returns_status_by_value():
            status.add(fn.name)
        else:
            other.add(fn.name)
    return status - other - _FACTORIES


def _origin_map(model, strict):
    """name -> home subsystem, for strict Status producers defined (or
    declared) in exactly one subsystem."""
    homes = {}
    for fn in model.all_functions():
        if fn.name in strict:
            homes.setdefault(fn.name, set()).add(
                model.subsystem_of(fn.file))
    return {name: subs.pop() for name, subs in homes.items()
            if len(subs) == 1}


def _member_origin_map(model):
    """(class, member) -> home subsystem for Status-returning member
    functions."""
    out = {}
    for fn in model.all_functions():
        if fn.class_name and fn.returns_status_by_value():
            out[(fn.class_name, fn.name)] = \
                model.subsystem_of(fn.file)
    return out


class _Checker:
    def __init__(self, sm, fn, subsystem, strict, origin_of, env,
                 members, member_origin, report):
        self.sm = sm
        self.fn = fn
        self.subsystem = subsystem
        self.strict = strict
        self.origin_of = origin_of
        self.env = env
        self.members = members
        self.member_origin = member_origin
        self.report = report
        self.local_env = env.locals_of(fn)
        self.shadowed = lambda_locals(fn) | set(self.local_env)
        self.vars = {}
        self.reported = set()
        self.returns_status = fn.returns_status_by_value()

    def _status_call_origin(self, call):
        """(is_status_call, origin_subsystem|None). Receiver-typed:
        a member call only counts when the receiver resolves to a
        modeled class that declares a Status-returning member of that
        name; a free call only when the name is unambiguous model-wide
        AND not shadowed by a local or lambda in this function."""
        if call.qualifier.endswith("Status::") and \
                call.name in _FACTORIES:
            return False, None
        if call.receiver is None:
            if not call.qualifier and call.name in self.shadowed:
                return False, None
            if call.name in self.strict:
                return True, self.origin_of.get(call.name)
            # Unqualified same-class member call.
            if self.fn.class_name and call.name in self.members.get(
                    self.fn.class_name, ()):
                return True, self.member_origin.get(
                    (self.fn.class_name, call.name))
            return False, None
        cls = self.env.receiver_class(self.fn, call.receiver,
                                      self.local_env)
        if cls is not None and call.name in self.members.get(cls, ()):
            return True, self.member_origin.get((cls, call.name))
        return False, None

    def check(self):
        self._walk_items(self.fn.body.items)
        for name, var in sorted(self.vars.items()):
            if var.state == "unread":
                self._emit(
                    var.line, "discard",
                    "Status stored in '%s' at line %d is never "
                    "consulted: the failure it may carry is silently "
                    "dropped (check isOk()/code() or propagate it)"
                    % (name, var.line))

    # ---- structure ---------------------------------------------------

    def _walk_items(self, items):
        for item in items:
            if isinstance(item, Stmt):
                self._do_stmt(item)
            elif isinstance(item, Block):
                self._do_block(item)

    def _do_block(self, block):
        kind = block.kind
        if kind in ("while", "for", "dowhile"):
            for _ in range(2):
                self._do_tokens(block.header, block.line)
                self._walk_items(block.items)
            return
        if kind in ("if", "else", "case", "lambda"):
            if block.header:
                self._do_tokens(block.header, block.line)
            before = {k: v.copy() for k, v in self.vars.items()}
            self._walk_items(block.items)
            self._merge(before)
            return
        if kind == "switch":
            self._do_tokens(block.header, block.line)
            before = {k: v.copy() for k, v in self.vars.items()}
            for item in block.items:
                saved = self.vars
                self.vars = {k: v.copy() for k, v in before.items()}
                if isinstance(item, Block):
                    self._walk_items(item.items)
                else:
                    self._do_stmt(item)
                branch = self.vars
                self.vars = saved
                self._merge_from(branch)
            return
        self._walk_items(block.items)

    def _merge(self, before):
        # Optimistic join: self.vars already reflects the branch
        # applied on top of `before`, and a read or wrap on the taken
        # branch is allowed to stand for the untaken one — that
        # under-reports instead of flagging guarded handling.
        del before

    def _merge_from(self, branch):
        for name, var in branch.items():
            cur = self.vars.get(name)
            if cur is None:
                self.vars[name] = var
            elif var.state == "read" and cur.state == "unread":
                cur.state = "read"
            elif var.wrapped:
                cur.wrapped = True

    def _do_stmt(self, stmt):
        self._do_tokens(stmt.tokens, stmt.line)
        for sub in stmt.sub_blocks:
            self._do_block(sub)

    # ---- the abstract step ------------------------------------------

    def _do_tokens(self, tokens, line):
        if not tokens:
            return
        texts = [t.text for t in tokens]

        decl = self._declaration(tokens, texts, line)
        assignment = None if decl else top_level_assignment(tokens)
        skip = set()
        if decl:
            skip.add(decl)          # the declared name's index
        lhs_index = -1
        if assignment:
            lhs, _rhs = assignment
            if len(lhs) == 1 and lhs[0].kind == "ident":
                lhs_index = texts.index("=") - 1
                if lhs[0].text in self.vars:
                    self._assign(lhs[0].text, tokens, texts,
                                 texts.index("=") + 1, line)
                    skip.add(lhs_index)

        wrap_args = self._wrap_arg_names(tokens, texts)

        for idx, tok in enumerate(tokens):
            if idx in skip or tok.kind != "ident":
                continue
            var = self.vars.get(tok.text)
            if var is None:
                continue
            if var.state == "unread":
                var.state = "read"
            if tok.text in wrap_args:
                var.wrapped = True

        self._check_return(tokens, texts, line)

    def _declaration(self, tokens, texts, line):
        """Track `Status s = ...` / `auto s = statusCall(...)`; returns
        the declared name's token index or None."""
        decl = local_decl(tokens, {"Status"})
        if decl is not None:
            _type, name, init, name_index = decl
            self._track(name, init or [], line)
            return name_index
        if len(texts) > 3 and texts[0] == "auto" and \
                tokens[1].kind == "ident" and texts[2] == "=":
            rhs = tokens[3:]
            if any(self._status_call_origin(c)[0] or
                   (c.qualifier.endswith("Status::") and
                    c.name in _FACTORIES)
                   for c in find_calls(rhs)):
                self._track(tokens[1].text, rhs, line)
                return 1
        return None

    def _track(self, name, init, line):
        origin = None
        producing = False
        for call in find_calls(init):
            is_status, call_origin = self._status_call_origin(call)
            if is_status:
                producing = True
                if call_origin is not None:
                    origin = call_origin
        if producing:
            self.vars[name] = _Var("unread", line, origin)
        else:
            self.vars[name] = _Var("benign", line)

    def _assign(self, name, tokens, texts, rhs_start, line):
        var = self.vars[name]
        if var.state == "unread":
            self._emit(
                line, "overwrite",
                "Status in '%s' is overwritten before the value "
                "assigned at line %d was read: that failure is "
                "silently forgotten" % (name, var.line))
        rhs = tokens[rhs_start:]
        self._track(name, rhs, line)

    def _wrap_arg_names(self, tokens, texts):
        """Identifiers passed as the cause argument of
        Status::wrap(code, msg, cause)."""
        names = set()
        for call in find_calls(tokens):
            if call.name == "wrap" and \
                    call.qualifier.endswith("Status::") and call.args:
                for tok in call.args[-1]:
                    if tok.kind == "ident":
                        names.add(tok.text)
        return names

    def _check_return(self, tokens, texts, line):
        if texts[0] != "return" or not self.returns_status:
            return
        # return s;  — s produced by a foreign subsystem, unwrapped.
        if len(tokens) == 2 and tokens[1].kind == "ident":
            var = self.vars.get(tokens[1].text)
            if var and var.origin and not var.wrapped and \
                    var.origin not in (self.subsystem, "common"):
                self._emit(
                    line, "unwrapped",
                    "Status '%s' originating in subsystem '%s' is "
                    "returned verbatim from subsystem '%s'; wrap it "
                    "(Status::wrap) so this layer's context joins "
                    "the cause chain" % (tokens[1].text, var.origin,
                                         self.subsystem))
            return
        # return foreignCall(...);  — direct unwrapped propagation.
        calls = find_calls(tokens)
        if len(calls) == 1 and calls[0].name_index <= 3 and \
                texts[-1] == ")":
            is_status, origin = self._status_call_origin(calls[0])
            if is_status and origin and \
                    origin not in (self.subsystem, "common"):
                self._emit(
                    line, "unwrapped",
                    "Status from '%s' (subsystem '%s') is returned "
                    "verbatim from subsystem '%s'; wrap it "
                    "(Status::wrap) so this layer's context joins "
                    "the cause chain" % (calls[0].name, origin,
                                         self.subsystem))

    def _emit(self, line, kind, message):
        key = (line, kind)
        if key in self.reported:
            return
        self.reported.add(key)
        self.report(self.sm.path, line, ID, message)
