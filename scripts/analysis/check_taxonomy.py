"""taxonomy: exit-code constants, StatusCode, and the classification
switches must agree.

The worker-process protocol of runGrid's process executor has three
artifacts that must stay in lockstep:

  - the StatusCode enum (src/common/status.hpp);
  - the WorkerExitCode constants the worker process exits with
    (src/sim/worker_handle.hpp);
  - the parent's classification switch classifyExit() and the
    worker-side encoder exitCodeForStatus().

A drift between them is invisible to the compiler (both directions
are plain ints at the process boundary) and shows up as a sweep that
"retries" corrupt cells forever or quarantines transient I/O. The
checks:

  1. every non-zero WorkerExitCode value lies in [40, 125] — below 40
     collides with shell/errno conventions, above 125 with the
     128+signal and 126/127 shell encodings; values must be unique;
  2. round-trip: classifyExit(exitCodeForStatus(c)) == c for every
     StatusCode c, except codes deliberately folded into the
     kInternal sink;
  3. every value exitCodeForStatus can return is a declared
     WorkerExitCode enumerator (no magic exit integers), and every
     case label in classifyExit is a declared enumerator value;
  4. every WorkerExitCode enumerator is classified by an explicit
     classifyExit case (default-sink is for unknown codes, not for
     forgetting a declared one);
  5. exit()/_exit() calls in the files that end a worker or its parent
     (EXIT_SCOPE) must pass a declared enumerator, not an integer
     literal (the 128+signal convention is recognized and exempt as an
     expression, not by file).

The checker keys off the names StatusCode / WorkerExitCode /
classifyExit / exitCodeForStatus; a model containing none of them
(most single files) produces no findings.
"""

from .model import Block, Stmt

ID = "taxonomy"

EXIT_RANGE = (40, 125)
SINK = "kInternal"
# Path fragments of the files whose exit calls end a worker process or
# the parent that forks it: the worker protocol (worker_handle), the
# worker body (process_executor) and SimRunner's signal exits.
EXIT_SCOPE = ("/sim/worker_handle.", "/sim/process_executor.",
              "/sim/sim_runner.")


def run(model, report):
    status_enum = _find_enum(model, "StatusCode")
    exit_enum = _find_enum(model, "WorkerExitCode")
    if exit_enum is None:
        return  # no taxonomy in this model

    exit_values = exit_enum.values()       # name -> int
    _check_ranges(exit_enum, exit_values, report)

    classify = _find_fn(model, "classifyExit")
    encode = _find_fn(model, "exitCodeForStatus")

    classify_map = classify_default = None
    if classify is not None:
        classify_map, classify_default = _switch_map(
            classify.fn, exit_values,
            status_enum.values() if status_enum else {})
    encode_map = encode_default = None
    if encode is not None:
        encode_map, encode_default = _switch_map(
            encode.fn, status_enum.values() if status_enum else {},
            exit_values)

    if status_enum is not None and classify is not None and \
            encode is not None:
        _check_round_trip(status_enum, exit_values,
                          classify, classify_map, classify_default,
                          encode, encode_map, encode_default, report)
    if classify is not None:
        _check_classify_covers(exit_enum, exit_values, classify,
                               classify_map, report)
    _check_exit_literals(model, exit_values, report)


class _Found:
    __slots__ = ("fn", "file")

    def __init__(self, fn, file):
        self.fn = fn
        self.file = file


def _find_enum(model, name):
    for en in model.all_enums():
        if en.name == name:
            return en
    return None


def _find_fn(model, name):
    for sm in model.files.values():
        for fn in sm.functions:
            if fn.name == name and fn.body is not None:
                return _Found(fn, sm.path)
    return None


def _check_ranges(exit_enum, exit_values, report):
    lo, hi = EXIT_RANGE
    seen = {}
    for name, value, line in _resolved(exit_enum):
        if value != 0 and not lo <= value <= hi:
            report(exit_enum.file, line, ID,
                   "exit code %s = %d is outside the reserved worker "
                   "range [%d, %d] (0 is success; below %d collides "
                   "with errno-style codes, above %d with shell/"
                   "signal encodings)" % (name, value, lo, hi, lo, hi))
        if value in seen:
            report(exit_enum.file, line, ID,
                   "exit code %s = %d duplicates %s: the parent "
                   "cannot distinguish the two failure classes"
                   % (name, value, seen[value]))
        else:
            seen[value] = name
    return seen


def _resolved(enum):
    out = []
    nxt = 0
    for name, value, line in enum.enumerators:
        if value is None:
            value = nxt
        out.append((name, value, line))
        nxt = value + 1
    return out


def _switch_map(fn, label_values, result_values):
    """(label -> (result, line), default_result) from the first switch
    in @p fn's body. Labels and results are canonicalized to ints via
    the given enum value maps when possible, else kept as the
    enumerator name."""
    switch = _first_switch(fn.body)
    if switch is None:
        return {}, None
    mapping = {}
    default = None
    pending = []
    for item in switch.items:
        if not isinstance(item, Block) or item.kind != "case":
            continue
        header = [t.text for t in item.header]
        if header and header[0] == "default":
            label = "default"
        else:
            label = _canon(header[1:], label_values)
        pending.append((label, item.line))
        result = _case_result(item, result_values)
        if result is None:
            continue  # fallthrough: next case's result applies
        for lab, line in pending:
            if lab == "default":
                default = result
            elif lab is not None:
                mapping[lab] = (result, line)
        pending = []
    return mapping, default


def _first_switch(block):
    for item in block.items:
        if isinstance(item, Block):
            if item.kind == "switch":
                return item
            found = _first_switch(item)
            if found is not None:
                return found
        elif isinstance(item, Stmt):
            for sub in item.sub_blocks:
                found = _first_switch(sub)
                if found is not None:
                    return found
    return None


def _case_result(case_block, result_values):
    for item in case_block.items:
        if isinstance(item, Stmt):
            texts = [t.text for t in item.tokens]
            if texts[:1] == ["return"]:
                return _canon(texts[1:], result_values)
    return None


def _canon(texts, values):
    """Value of a case label / return expression: an enum-resolved
    int, a literal int, or the raw identifier when unresolvable."""
    texts = [t for t in texts
             if t not in ("(", ")", "::", "static_cast", "<", ">",
                          "int")]
    if not texts:
        return None
    last = texts[-1]
    if last in values:
        return values[last]
    try:
        return int(last, 0)
    except ValueError:
        return last  # unresolved identifier, e.g. a macro


def _check_round_trip(status_enum, exit_values,
                      classify, classify_map, classify_default,
                      encode, encode_map, encode_default, report):
    status_values = status_enum.values()
    sink = status_values.get(SINK)
    known_exit = set(exit_values.values())
    for name, value, _line in _resolved(status_enum):
        enc = encode_map.get(value)
        if enc is None:
            if encode_default is None:
                report(encode.file, encode.fn.line, ID,
                       "exitCodeForStatus() has no case (and no "
                       "default) for StatusCode::%s: workers failing "
                       "with it exit with garbage" % name)
                continue
            code, enc_line = encode_default, encode.fn.line
        else:
            code, enc_line = enc
        if isinstance(code, int) and code not in known_exit:
            report(encode.file, enc_line, ID,
                   "exitCodeForStatus() returns %d for "
                   "StatusCode::%s, which is not a declared "
                   "WorkerExitCode enumerator" % (code, name))
            continue
        if not isinstance(code, int):
            continue  # unresolved (macro) — cannot follow further
        back = classify_map.get(code)
        if back is None:
            back_value = classify_default
            back_line = classify.fn.line
        else:
            back_value, back_line = back
        if back_value is None:
            report(classify.file, classify.fn.line, ID,
                   "classifyExit() cannot classify exit code %d "
                   "produced for StatusCode::%s (no case, no "
                   "default)" % (code, name))
            continue
        if back_value not in (value, sink):
            got = _status_name(status_values, back_value)
            report(encode.file, enc_line, ID,
                   "round-trip broken: StatusCode::%s encodes to "
                   "exit code %d but classifyExit(%d) yields %s — "
                   "the parent will mis-triage this failure "
                   "class" % (name, code, code, got))


def _status_name(status_values, value):
    for name, v in status_values.items():
        if v == value:
            return "StatusCode::" + name
    return repr(value)


def _check_classify_covers(exit_enum, exit_values, classify,
                           classify_map, report):
    for name, value, line in _resolved(exit_enum):
        if value not in classify_map:
            report(classify.file, classify.fn.line, ID,
                   "classifyExit() has no explicit case for declared "
                   "exit code %s (= %d): it falls into the "
                   "unknown-code default and loses its failure class"
                   % (name, value))
    for label in classify_map:
        if isinstance(label, int) and \
                label not in set(exit_values.values()):
            result, line = classify_map[label]
            report(classify.file, line, ID,
                   "classifyExit() handles exit code %d, which no "
                   "WorkerExitCode enumerator declares: magic "
                   "constant drift" % label)


def _check_exit_literals(model, exit_values, report):
    known = set(exit_values.values()) | {0}
    for sm in model.files.values():
        if not any(part in "/" + sm.path for part in EXIT_SCOPE):
            continue
        for fn in sm.functions:
            if fn.body is None:
                continue
            _scan_exit_calls(sm, fn.body, known, report)


def _scan_exit_calls(sm, block, known, report):
    from .cppsem import find_calls
    for item in block.items:
        if isinstance(item, Block):
            _scan_exit_calls(sm, item, known, report)
            continue
        for sub in item.sub_blocks:
            _scan_exit_calls(sm, sub, known, report)
        for call in find_calls(item.tokens):
            if call.name not in ("exit", "_exit", "quick_exit"):
                continue
            if len(call.args) != 1 or len(call.args[0]) != 1:
                continue  # 128 + sig convention and expressions
            tok = call.args[0][0]
            if tok.kind != "num":
                continue
            try:
                value = int(tok.text, 0)
            except ValueError:
                continue
            if value not in known:
                report(sm.path, tok.line, ID,
                       "%s(%d) in worker exit code: exit codes must be "
                       "declared WorkerExitCode enumerators, not "
                       "magic integers" % (call.name, value))
