"""Seeded argv lists for the benchmark workloads.

A workload takes a ``random.Random`` and returns the run's operations: a fixed
list of ``(kind, argv)`` pairs. ``kind`` labels the operation and ``argv`` is
exactly what the program receives (output paths are relative, so a cold and a
warm invocation of one operation get identical argv). The runner runs the
whole list once and then goes round it again while time remains, so the
operations a run attempts, and which of them fail, depend on the seed alone.

Ranges are drawn around the reference point of ``omitlab.default_config``
(P = 2 mW, kappa = 2 pi 15 MHz, Q = 1.2e5, L = 100). ``--threads`` is never
passed: the program's default pool is what users get.
"""

import math

REF_P = 2e-3
REF_KAPPA = 2.0 * math.pi * 15e6
REF_Q = 1.2e5
FIGURE_CONFIGS = 3


def _num(x):
    return repr(float(x))


def _kappa_q(rng):
    return ["--kappa", _num(REF_KAPPA * rng.uniform(0.8, 1.25)),
            "--Q1", _num(REF_Q * 2.0 ** rng.uniform(-1.0, 1.0)),
            "--Q2", _num(REF_Q * 2.0 ** rng.uniform(-1.0, 1.0))]


def figure(rng):
    """spectrum --svg and dips on each of FIGURE_CONFIGS seeded configs."""
    ops = []
    for _ in range(FIGURE_CONFIGS):
        cfg = ["--P", _num(REF_P * rng.uniform(0.5, 1.5)), *_kappa_q(rng),
               "--L", str(rng.randint(60, 140))]
        ops += [("spectrum", ["spectrum", "--svg", "--out", "spectrum.csv", *cfg]),
                ("dips", ["dips", "--out", "dips.json", *cfg])]
    return ops


def _maps(rng):
    """The three 2-D maps: fixed-mode L x Delta nu_p (8241 cells, one config
    per row of 201), the 40 x 40 delay map (1600 distinct configs) and the
    self-consistent P x L tau_g map (4141 distinct configs, crossing into
    the bistable region, no SVG)."""
    cfg = _kappa_q(rng)
    return [("map2d-fixed", ["map2d", "--axis1", "L", "--grid1", "0:200:41",
                             "--axis2", "Delta", "--grid2", "0.5:1.5:201",
                             "--observable", "nu_p", "--svg",
                             "--out", "map2d.csv", *cfg]),
            ("delay-map", ["delay-map", "--svg", "--out", "delay_map.csv",
                           "--p-stop", _num(rng.uniform(0.004, 0.006)), *cfg]),
            ("map2d-selfconsistent", [
                "map2d", "--delta0", _num(rng.uniform(1.2, 1.8)),
                "--axis1", "P", "--grid1", "0.0001:0.004:41",
                "--axis2", "L", "--grid2", "0:200:101",
                "--observable", "tau_g", "--delta", "1.1",
                "--out", "map2d_sc.csv"])]


# Detunings [omega_m] in the band of criterion 3 whose oracle verdict is
# known. At the default relax-q and tol, a0_rel_err exceeds its 1e-6
# threshold at the first three (1.22e-6, 2.08e-6, 1.59e-6) and stays below
# it at the other four.
A0_FAILS = (0.93, 1.04, 1.08)
A0_PASSES = (0.9, 0.97, 1.0, 1.1)


def _oracle(rng):
    """The time-domain oracle at two detunings of the band [0.9, 1.1]: one
    with a known a0 failure and one without, so that every seed shows the
    defect at the same rate. They lie in opposite halves of the band, where
    the integrator does a quarter less or more work, so that the run's cost
    does not depend on the draw either."""
    fail = rng.choice(A0_FAILS)
    passes = A0_PASSES[2:] if fail < 1.0 else A0_PASSES[:2]
    return [("oracle", ["oracle", "--delta", _num(x), "--out", "oracle.json"])
            for x in (fail, rng.choice(passes))]


def maps_oracle(rng):
    """The maps and the oracle, in a seeded order: the layers whose cost is
    a Python loop over cells or integrator steps."""
    ops = _maps(rng) + _oracle(rng)
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "figure": figure,
    "maps-oracle": maps_oracle,
}
