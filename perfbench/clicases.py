"""The cold-CLI workload: one seeded cycle of subcommands, and their inputs.

``cases`` lists the cycle: each of the 12 subcommands once on light inputs,
then the one known fault (``thm59`` on a coarse gridded density, whose
quadrature does not converge; the CLI documents exit 3 for that).  Every op
is a fresh interpreter, so the cycle is the unit whose make-up repeats.
``write_inputs`` builds the representation and measure files with the
library's own serializers; it runs in the set-up process.
"""

import os

import numpy as np

INPUT_DIR = os.path.join("perfbench", "out", "cli-inputs")
REP_FILE = os.path.join(INPUT_DIR, "log1p-rep.json")
ATOMS_FILE = os.path.join(INPUT_DIR, "atoms-measure.json")
COARSE_FILE = os.path.join(INPUT_DIR, "coarse-measure.json")
# the coarse density of the known fault; fixed, not drawn from the seed
COARSE_GRID = (0.0, 1.0, 5.0, 20.0)
COARSE_VALUES = (1.0, 0.5, 0.2, 0.0)


def _atoms(seed):
    rng = np.random.default_rng([seed, 5])
    return [(float(lam), float(w)) for lam, w in
            zip(rng.uniform(0.2, 3.0, 3), rng.uniform(0.2, 1.0, 3))]


def cases(seed):
    """The cycle of CLI ops for this seed; each case carries what its oracle needs."""
    rng = np.random.default_rng([seed, 4])

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def window():
        return u(0.05, 0.5), u(2.0, 4.0)

    def fn(name, *extra):
        return ["--function", f"catalog:{name}", *extra]

    out = []

    def add(cmd, argv, expect_exit, **params):
        out.append({"cmd": cmd, "argv": [cmd, *argv, "--json"], "exit": expect_exit, **params})

    lo, hi = window()
    add("check-pd", fn("exp_decay", "--interval", f"{lo!r},{hi!r}"), 0)
    lo, hi = window()
    add("check-nd", fn("log1p", "--interval", f"{lo!r},{hi!r}"), 0)
    lam, a = u(0.5, 2.0), u(0.5, 2.0)
    add("check-rp", fn("green", "--lam", repr(lam), "--a", repr(a)), 0, lam=lam)
    add("check-rn", fn("abs_power", "--alpha", "1.5", "--a", repr(u(1.0, 3.0)),
                       "--points", "8"), 1)
    add("check-cm", fn("neg_power", "--alpha", repr(u(0.5, 2.0))), 0)
    lo, hi = window()
    add("check-bernstein", fn("ratio", "--interval", f"{lo!r},{hi!r}"), 0)
    add("hankel", fn("exp_decay", "--center", repr(u(0.2, 2.0)), "--order", "3", "--shifted"), 0)
    add("polya", fn("triangle", "--interval", f"0,{u(1.5, 3.0)!r}"), 0)
    ts = [float(t) for t in rng.uniform(0.02, 6.0, 4)]
    add("synth", ["--rep", REP_FILE, *[x for t in ts for x in ("--t", repr(t))]], 0, ts=ts)
    lo, hi = u(0.1, 0.5), u(2.0, 4.0)
    t0 = u(1.0, 2.0)
    add("analyze", fn("neg_tlogt", "--form", "interval", "--t0", repr(t0),
                      "--interval", f"{lo!r},{hi!r}"), 0, t0=t0, window=[lo, hi])
    add("thm59", ["--measure", ATOMS_FILE, "--a", repr(u(0.5, 1.5))], 0, atoms=_atoms(seed))
    add("gallery", [], 0)
    add("thm59", ["--measure", COARSE_FILE, "--a", "1"], 3, known_fault=True)
    return out


def write_inputs(root, seed):
    """Write the input files of ``cases(seed)`` under ``root``."""
    import posdefkit as pk
    from posdefkit import levykhin as lk

    os.makedirs(os.path.join(root, INPUT_DIR), exist_ok=True)
    docs = {
        REP_FILE: lk.rep_to_json(pk.get("log1p").lk_data),
        ATOMS_FILE: pk.measure_to_json(pk.Measure(atoms=tuple(_atoms(seed)))),
        COARSE_FILE: pk.measure_to_json(pk.Measure(
            density=pk.GriddedDensity(np.asarray(COARSE_GRID), np.asarray(COARSE_VALUES)),
            support=(0.0, 20.0))),
    }
    for rel, text in docs.items():
        with open(os.path.join(root, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
