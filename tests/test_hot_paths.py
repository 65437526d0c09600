"""Guard the per-message and per-op paths against known slow idioms.

On Python 3.11 (the interpreter the benchmark runs on) three idioms cost
far more than they look:

* ``MessageType.GET``-style loads go through ``EnumType.__getattr__``
  (~130 ns against ~8 ns for a module global);
* ``msg.mtype.value`` is a Python-level property (``_value_`` is a plain
  attribute);
* ``mode.detects`` / ``mode.repairs`` are properties re-derived on every
  read.

And a ``queue.schedule(...)`` continuation allocates an ``Event`` handle
(usually with a ``functools.partial``) where ``queue.post`` pushes a bound
method and its argument.

The functions named below run once per memory op or per coherence message.
Each is scanned with ``ast``: none may contain those idioms, and nothing in
``repro.coherence`` may call ``schedule``.  Module-level aliases and tables
built in ``__init__`` are where the enum members are read instead.
"""

from __future__ import annotations

import ast
import enum
import importlib
import inspect
import pkgutil
import textwrap

import pytest

import repro.coherence

#: module -> {class name ("" for module level) -> function names}
HOT_PATHS = {
    "repro.coherence.l1_controller": {"L1Controller": [
        "access", "_perform", "_start_miss", "_send", "_send_request",
        "_reissue", "_fill", "_evict", "_send_md_on_eviction",
        "handle_message", "_fill_state_for", "_on_data", "_complete_mshr",
        "_on_upg_ack", "_on_ack_prv", "_note_req_md", "_metadata_response",
        "_invalidate_line", "_on_inv", "_on_forward", "_on_tr_prv",
        "_on_inv_prv", "_on_recall", "_on_wb_ack",
    ]},
    "repro.coherence.directory": {
        "LlcLine": ["holders"],
        "DirectorySlice": [
            "_send", "_data_payload", "_enqueue", "_release_busy", "_drain",
            "handle_message", "_on_request", "_process_request",
            "_do_demand", "_do_upgrade", "_req_md_for", "_intervene",
            "_invalidate_sharers", "_finish_inv_collect", "_finish_fwd",
            "_start_prv_init", "_allocate_sam", "_handle_sam_eviction",
            "_finish_prv_init", "_record_access", "_prv_check", "_prv_join",
            "_do_chk", "_start_termination", "_term_merge",
            "_finish_termination", "_start_fetch", "_fetch_done",
            "_fetch_attempt", "_evict", "_evict_llc_block", "_recall",
            "_finish_recall", "_install_llc", "_responded", "_absorb",
            "_depart_prv", "_on_putm", "_on_inv_ack", "_on_data_wb",
            "_on_xfer_ack", "_on_ack_no_data", "_on_rep_md", "_on_phantom",
            "_on_prv_wb", "_on_ctrl_wb",
        ],
    },
    "repro.core.fsdetect": {"FalseSharingDetector": [
        "count_fetch", "count_invalidations", "should_request_md",
        "classify",
    ]},
    "repro.interconnect.network": {
        "Network": ["send", "serialization_delay"],
        "NetworkStats": ["record"],
        "": ["channel_of"],
    },
    "repro.cpu.core": {"InOrderCore": ["start", "_advance"]},
    "repro.cpu.ooo": {"OutOfOrderCore": [
        "start", "_advance", "_issue", "_complete_slot",
    ]},
    "repro.cpu.ops": {
        "Op": ["__init__"],
        "": ["load", "store", "rmw", "fetch_add", "cas"],
    },
}


def _functions(module, owner: str, names):
    """``(qualified name, FunctionDef)`` for each named function."""
    tree = ast.parse(inspect.getsource(module))
    scope = tree.body
    if owner:
        (cls,) = [n for n in tree.body
                  if isinstance(n, ast.ClassDef) and n.name == owner]
        scope = cls.body
    defs = {n.name: n for n in scope if isinstance(n, ast.FunctionDef)}
    missing = sorted(set(names) - set(defs))
    assert not missing, f"{module.__name__}.{owner}: no {missing}"
    return [(f"{module.__name__}.{owner}.{name}".replace("..", "."),
             defs[name]) for name in names]


def _is_enum_class(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, enum.Enum)


def _offences(module, func: ast.FunctionDef):
    for node in ast.walk(func):
        if not isinstance(node, ast.Attribute) or \
                not isinstance(node.ctx, ast.Load):
            continue
        base = node.value
        if isinstance(base, ast.Name) and \
                _is_enum_class(vars(module).get(base.id)):
            yield f"enum class attribute {base.id}.{node.attr}"
        if node.attr == "value" and (
                isinstance(base, ast.Name) and base.id == "mtype"
                or isinstance(base, ast.Attribute) and base.attr == "mtype"):
            yield f"{ast.unparse(node)} (use ._value_)"
        if node.attr in ("detects", "repairs") and (
                isinstance(base, ast.Name) and base.id == "mode"
                or isinstance(base, ast.Attribute) and base.attr == "mode"):
            yield f"{ast.unparse(node)} (bind a flag in __init__)"


_CASES = [(module_name, owner, names)
          for module_name, owners in HOT_PATHS.items()
          for owner, names in owners.items()]


@pytest.mark.parametrize(
    "module_name,owner,names", _CASES,
    ids=[f"{m.rsplit('.', 1)[1]}.{o or 'module'}" for m, o, _ in _CASES])
def test_hot_paths_avoid_slow_idioms(module_name, owner, names):
    module = importlib.import_module(module_name)
    found = [f"{qualname}: {what}"
             for qualname, func in _functions(module, owner, names)
             for what in _offences(module, func)]
    assert not found, "\n".join(found)


def test_coherence_posts_continuations_without_event_handles():
    found = []
    for info in pkgutil.iter_modules(repro.coherence.__path__):
        module = importlib.import_module(f"repro.coherence.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "schedule":
                found.append(f"{module.__name__}:{node.lineno}: "
                             f"{ast.unparse(node)}")
    assert not found, "\n".join(found)


def test_guard_sees_each_idiom():
    """The scanner flags every idiom it guards against."""
    from repro.interconnect import message

    source = textwrap.dedent("""
        def f(self, msg):
            a = MessageType.GET
            b = msg.mtype.value
            c = self.mode.detects
            return a, b, c
    """)
    (func,) = ast.parse(source).body
    found = list(_offences(message, func))
    assert len(found) == 3, found
