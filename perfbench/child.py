"""Child process of the benchmark: sets up, then runs one op per request.

Started by `run.py` with the library's `src` directory on PYTHONPATH:

    python3 perfbench/child.py <workload> <trace 0|1> <src dir>

It imports the library, builds the workload's root systems and forces
their Weyl-group enumeration, then prints one JSON "ready" line.  After
that it reads one JSON request per line from stdin and answers each with
one JSON line on stdout:

    {"cmd": "op", "op": {...}, "fresh": bool}
                                     -> {"ms": ..., "raw_ms": ...,
                                         "probes": ..., "out": {...}}
    {"cmd": "phase", "name": ..., "traced": bool}
                                     -> {"ok": true}
    {"cmd": "finish", "trace_path": ...}
                                     -> {"maxrss_kb": ..., "layers": {...}}

Each op is timed here, around the call into `alcoves.cli.main` or into a
public library function, so the timing leaves out parsing the request and
digesting the output.  The op and the set-up are sampled with the
workload's probe kernel (`calibrate.Clock`): `ms` is the scaled time,
`raw_ms` the time without the probes.  The probe after one op serves as
the probe before the next, unless the request says `fresh` (the first
op of a round, after the driver's fresh set-ups).  The child never
writes to the library's files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _vec(s: str) -> tuple:
    return tuple(Fraction(p) for p in s.split(","))


def _fracs(v) -> list[str]:
    return [workloads.frac_str(x) for x in v]


def _mat(m) -> list:
    return [_fracs(row) for row in m]


def _complex_rows(a) -> list:
    return [[[c.real, c.imag] for c in row] for row in a.tolist()]


class Session:
    """The library loaded in this process, with the workload's set-up
    done, and the op executor."""

    def __init__(self, workload: str, trace: bool, src: str | None):
        t0 = time.perf_counter()
        import numpy  # noqa: F401  (the library imports it eagerly too)
        import alcoves
        from alcoves import (centralizer, cli, rootdata, weierstrass,
                             weylaff)
        self.import_s = time.perf_counter() - t0
        if src is not None and not Path(alcoves.__file__).resolve() \
                .is_relative_to(Path(src).resolve()):
            raise RuntimeError(f"alcoves imported from {alcoves.__file__}, "
                               f"not from {src}")
        self.np = numpy
        self.cli, self.centralizer = cli, centralizer
        self.weylaff, self.weierstrass = weylaff, weierstrass
        self.tracer = None
        if trace:
            self.tracer = spans.Tracer()
            self.tracer.install()
        self._captured = {}
        self._capture()

        t0 = time.perf_counter()
        self.systems = {}
        for label in workloads.SETUP_TYPES[workload]:
            self.systems[label] = rootdata.build_root_system(
                rootdata.CartanType(label[0], int(label[1:]), "sc"))
        self.lattices = {name: weierstrass.Lattice(*periods)
                         for name, periods in workloads.LATTICES.items()}
        self.build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for rs in self.systems.values():
            weylaff.identity_element(rs)  # fills the cached Weyl group
        self.weyl_s = time.perf_counter() - t0
        self.counters_after_setup = \
            self.tracer.counters() if self.tracer else None
        self.traced_rounds = 0
        self.clock = calibrate.Clock(workloads.CALIBRATION[workload])

    def _capture(self):
        """Keep the last value `wp_matrix` and `wp_prime_matrix` returned
        inside the weierstrass module, so cubic_report's p(Z) and p'(Z) can
        be checked without a second evaluation.  The cost is one extra
        Python call per evaluation.  Wraps whatever is bound now, so it is
        redone after the tracer swaps its bindings."""
        mod = self.weierstrass
        captured = self._captured
        for name in ("wp_matrix", "wp_prime_matrix"):
            def capture(*args, _inner=getattr(mod, name), _name=name,
                        **kwargs):
                result = _inner(*args, **kwargs)
                captured[_name] = result
                return result

            setattr(mod, name, capture)

    # -- ops -----------------------------------------------------------------

    def run(self, op: dict, fresh: bool) -> dict:
        """Run one op; return its scaled and raw time in ms and its
        output summary."""
        if fresh:
            self.clock.fresh()
        out = getattr(self, "_op_" + op["kind"])(op)
        return {"ms": self.clock.ms, "raw_ms": self.clock.raw_ms,
                "probes": self.clock.probes, "out": out}

    def _op_cli(self, op):
        buf = io.StringIO()
        argv = list(op["argv"])
        with self.clock:
            with contextlib.redirect_stdout(buf):
                try:
                    rc = self.cli.main(argv)
                except SystemExit as e:  # argparse refuses the arguments
                    rc = e.code
        text = buf.getvalue()
        if argv[0] == "verify":
            lines = [json.loads(line) for line in text.splitlines() if line]
            for line in lines:
                line.pop("elapsed_ms", None)
            text = json.dumps(lines, sort_keys=True)
        return {"exit": rc, "digest": workloads.digest(text)}

    def _op_centralizer_elliptic(self, op):
        rs = self.systems[op["type"]]
        theta, a = _vec(op["theta"]), _vec(op["a"])
        c = self.centralizer
        with self.clock:
            data = c.centralizer_elliptic(rs, c.exp_point(rs, theta, a))
        return {"digest": workloads.digest(json.dumps(data.to_json(),
                                                sort_keys=True))}

    def _op_stabilizer_of_point(self, op):
        rs = self.systems[op["type"]]
        x = _vec(op["x"])
        with self.clock:
            group = self.weylaff.stabilizer_of_point(rs, x)
        elements = sorted(json.dumps([_mat(e.finite_part.matrix),
                                      _fracs(e.translation)])
                          for e in group.elements)
        return {"digest": workloads.digest(json.dumps(elements))}

    def _op_reduce_to_alcove(self, op):
        rs = self.systems[op["type"]]
        x = _vec(op["x"])
        with self.clock:
            w, xr = self.weylaff.reduce_to_alcove(rs, x)
        return {"digest": workloads.digest(json.dumps(
            [_mat(w.finite_part.matrix), _fracs(w.translation), _fracs(xr)]))}

    def _op_double_affine_centralizer(self, op):
        rs = self.systems[op["type"]]
        a1, a2 = _vec(op["a1"]), _vec(op["a2"])
        with self.clock:
            data = self.centralizer.double_affine_centralizer(rs, a1, a2)
        text = json.dumps({
            "phi_b": [[d.n1, d.n2, d.root_index] for d in data.phi_b],
            "w_b": sorted(json.dumps([_mat(w0.matrix), _fracs(l1),
                                      _fracs(l2)])
                          for w0, l1, l2 in data.w_b),
            "proj1": data.proj1.to_json(),
            "proj2": data.proj2.to_json(),
            "cartesian": data.cartesian,
            "injective": data.injective,
        }, sort_keys=True)
        return {"digest": workloads.digest(text),
                    "verdict": data.cartesian and data.injective}

    def _op_cubic_report(self, op):
        lat = self.lattices[op["lattice"]]
        z = self.np.array([[complex(*c) for c in row] for row in op["z"]])
        self._captured.clear()
        with self.clock:
            rep = self.weierstrass.cubic_report(z, lat, op["radius"])
        return {
            "p": _complex_rows(self._captured["wp_matrix"]),
            "dp": _complex_rows(self._captured["wp_prime_matrix"]),
            "residual_cubic": rep["residual_cubic"],
            "residual_commutator": rep["residual_commutator"],
        }

    def _op_wp_scalar(self, op):
        lat = self.lattices[op["lattice"]]
        z = complex(*op["z"])
        with self.clock:
            v = self.weierstrass.wp_scalar(z, lat, op["radius"])
        return {"p": [v.real, v.imag]}

    # -- tracing -------------------------------------------------------------

    def phase(self, name: str, traced: bool):
        if self.tracer is None:
            return
        self.clock.sampling = not traced
        if traced:
            self.tracer.set_phase(name)
            self.tracer.install()
            self.traced_rounds += 1
        else:
            self.tracer.uninstall()
        self._capture()

    def layers(self) -> dict:
        return spans.layer_metrics(self.tracer, self.counters_after_setup,
                                     self.traced_rounds,
                                     workloads.WP_RADIUS)


def main(argv: list[str]) -> int:
    workload, trace, src = argv[0], argv[1] == "1", argv[2]
    pipe = sys.stdout

    def reply(obj):
        pipe.write(json.dumps(obj) + "\n")
        pipe.flush()

    clock = calibrate.Clock(calibrate.SETUP_KERNEL)
    clock.sampling = not trace  # so that the set-up spans hold no probes
    t0 = time.perf_counter()
    with clock:
        session = Session(workload, trace, src)
    reply({"ready": True, "import_s": session.import_s,
           "build_s": session.build_s, "weyl_s": session.weyl_s,
           "numpy": session.np.__version__,
           "sampled": {"wall_s": time.perf_counter() - t0,
                       "scaled_s": clock.ms / 1e3,
                       "probe_ms": statistics.median(clock.probe_ms)
                       if clock.probe_ms else None,
                       "probes": clock.probes}})
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "op":
            try:
                reply(session.run(msg["op"], msg.get("fresh", True)))
            except Exception as e:  # reported as a failed op, run goes on
                reply({"error": f"{type(e).__name__}: {e}"})
        elif cmd == "phase":
            session.phase(msg["name"], msg["traced"])
            reply({"ok": True})
        elif cmd == "finish":
            out = {"maxrss_kb":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "probe_ms": statistics.median(session.clock.probe_ms
                                                 or [0.0])}
            if session.tracer is not None:
                session.tracer.uninstall()
                out["layers"] = session.layers()
                if msg.get("trace_path"):
                    os.makedirs(os.path.dirname(msg["trace_path"]),
                                exist_ok=True)
                    session.tracer.write(msg["trace_path"])
            reply(out)
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
