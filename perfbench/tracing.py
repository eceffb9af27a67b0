"""Span tracing installed around the library's public names at run time.

Nothing under ``src/`` knows about it: :func:`install` swaps each traced
function for a wrapper in every ``fermibundle`` module namespace that holds
it, wraps class constructors through ``__post_init__``, wraps the
``numpy.linalg`` entry points and the ``json`` calls the CLI makes, and
returns a callable that puts every original back.

A span is (name, start, end, parent, self time); self time is the span's
duration minus the durations of its direct children.  Spans stay in memory
until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

# Public functions and dataclass constructors, by defining module.
TARGETS = {
    "nambu": ("make_nambu", "NambuSpace", "Generator"),
    "planes": ("Plane", "plane_distance", "fermi_perp", "pseudo_check"),
    "symmetry": ("lift_plane", "double_one_one"),
    "bundles": ("make_sphere_grid", "Bundle", "validate_bundle",
                "serialize_bundle", "deserialize_bundle", "double_bundle"),
    "suspension": ("SuspensionInput", "suspend", "rotor"),
    "invariants": ("pfaffian", "pfaffian_field", "kane_mele_z2",
                   "chern_number", "chiral_winding", "class_d_z2",
                   "fermion_parity", "component_index_ai"),
}
LINALG = ("det", "svd", "eigh", "norm", "qr")
CLI_COMMANDS = ("example", "validate", "suspend", "invariant", "doubling")
JSON_ENCODE = ("json.dump", "json.dumps")
JSON_DECODE = ("json.load", "json.loads")


def span_names():
    """Every span name a traced pass can record, in report order."""
    names = [f"{mod}.{name}" for mod, names in TARGETS.items()
             for name in names]
    names += [f"cli.main.{cmd}" for cmd in CLI_COMMANDS]
    names += [f"linalg.{fn}" for fn in LINALG]
    return names + list(JSON_ENCODE + JSON_DECODE)


class Tracer:
    """Records nested spans of wrapped calls into in-memory lists."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id, self.start, self.end = [], [], []
        self.parent, self.self_time, self.pass_id = [], [], []
        self._stack = []            # [span index, child time] per open span
        self.current_pass = -1

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_time.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        self._stack.pop()
        index, children = frame
        self.start[index] = t0
        self.end[index] = t1
        self.self_time[index] = (t1 - t0) - children
        if self._stack:
            self._stack[-1][1] += t1 - t0

    def wrap(self, name, fn):
        """``fn`` recording one span named ``name`` per call."""
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, t0, clock())
        return wrapper

    def run_pass(self, index, fn):
        """Run ``fn`` as traced pass ``index`` under a root span."""
        self.current_pass = index
        return self.wrap("pass", fn)()

    def per_pass(self, passes):
        """Two lists, one entry per pass: {name: calls}, {name: self s}."""
        calls = [dict() for _ in range(passes)]
        selfs = [dict() for _ in range(passes)]
        names = self.names
        for nid, p, st in zip(self.name_id, self.pass_id, self.self_time):
            name = names[nid]
            calls[p][name] = calls[p].get(name, 0) + 1
            selfs[p][name] = selfs[p].get(name, 0.0) + st
        return calls, selfs

    def write(self, path):
        """Save every span as arrays in one ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 self_time=np.array(self.self_time),
                 pass_id=np.array(self.pass_id, dtype=np.int32))


def _json_proxy(tracer, json_module):
    """A stand-in for the ``json`` module whose calls record spans."""
    proxy = types.ModuleType("json")
    proxy.__dict__.update(json_module.__dict__)
    for name in JSON_ENCODE + JSON_DECODE:
        attr = name.split(".")[1]
        setattr(proxy, attr, tracer.wrap(name, getattr(json_module, attr)))
    return proxy


def _cli_main(tracer, main):
    """``cli.main`` recording one span named after its subcommand."""
    wrapped = {cmd: tracer.wrap(f"cli.main.{cmd}", main)
               for cmd in CLI_COMMANDS}

    @functools.wraps(main)
    def wrapper(argv=None):
        return wrapped.get(argv[0], main)(argv)
    return wrapper


def install(tracer):
    """Wrap every traced name; return a function that undoes it all."""
    import fermibundle
    import fermibundle.cli

    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    package_modules = [m for n, m in sys.modules.items()
                       if n == "fermibundle" or n.startswith("fermibundle.")]
    for mod, names in TARGETS.items():
        defining = sys.modules[f"fermibundle.{mod}"]
        for name in names:
            orig = getattr(defining, name)
            if isinstance(orig, type):
                replace(orig, "__post_init__",
                        tracer.wrap(f"{mod}.{name}",
                                    orig.__dict__["__post_init__"]))
                continue
            wrapper = tracer.wrap(f"{mod}.{name}", orig)
            for module in package_modules:
                if module.__dict__.get(name) is orig:
                    replace(module, name, wrapper)
    for fn in LINALG:
        replace(np.linalg, fn, tracer.wrap(f"linalg.{fn}",
                                           getattr(np.linalg, fn)))
    cli = fermibundle.cli
    replace(cli, "json", _json_proxy(tracer, cli.json))
    replace(cli, "main", _cli_main(tracer, cli.main))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return uninstall
