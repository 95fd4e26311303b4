"""Job templates, the seeded job generator and the verdict oracle.

A workload is a list of job templates.  A run executes whole rounds; each
round runs every template once, in a seeded order, with one knob (the
template's ``vary`` flag) set to a fresh value, so no argv repeats within a
run and a cross-job cache only pays where jobs really share work.  Because
every round holds each template exactly once, the job mix of a run does not
depend on the seed or on how many rounds fit in the time budget.

``expect`` is the set of exit codes the README and the catalog semantics
allow (0 pass, 1 fail/violated, 2 inconclusive).  Exit 64/74, an exception
or any other code is a failed job.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass


@dataclass(frozen=True)
class Template:
    argv: str
    expect: frozenset
    vary: str            # the knob given a fresh value in every round


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    expect: frozenset

    @property
    def line(self) -> str:
        return shlex.join(self.argv)


def _t(argv: str, expect, vary: str) -> Template:
    return Template(argv, frozenset(expect), vary)


PASS, FAIL, INCONCLUSIVE = {0}, {1}, {2}
# A raw positivity scan of an exact (equality) residual sees cancellation
# noise near t -> 0, so its verdict is set by rounding, not by the pair:
# either "nonnegative" or "violated" is a correct outcome today.
EQUALITY_SCAN = {0, 1}

_CLASSICAL_SHAPES = (
    "verify {} --shape delta-vs-gradrad",
    "verify {} --shape gradrad-vs-usq",
    "verify {} --shape delta-vs-grad --modes 0,1,2",
    "chain {}",
)

WORKLOADS = {
    # Large expression trees through the positivity scanners: vector and
    # scalar expr evaluation (grid, bisection, Richardson), no quadrature,
    # no ODE.  ell-family E1/E2 is the documented boundary failure mode.
    "scan": [
        *[_t(f"scan --catalog ell-family --k {k} --n 5 --R 1 --target {e}", FAIL, "grid")
          for k in (4, 5, 6) for e in ("E1", "E2")],
        *[_t(f"scan --catalog iterlog --k {k} --n 5 --R 1 --target residual",
             EQUALITY_SCAN, "grid") for k in (1, 2, 3)],
        *[_t(f"scan --catalog iterlog --k {k} --n 5 --R 1 --target E1", PASS, "grid")
          for k in (1, 2, 3)],
        *[_t(f"check-pair --catalog ell-family --k {k} --R 1", PASS, "grid")
          for k in (4, 5, 6)],
        # iterlog check-pair only at k = 3: the round's median job is then
        # check-pair on ell-family k = 4, not an iterlog residual scan whose
        # cost follows its rounding-set verdict.
        _t("check-pair --catalog iterlog --k 3 --R 1", PASS, "grid"),
        _t("scan --catalog classical-rellich --n 6 --target E1", PASS, "grid"),
        _t("check-pair --catalog classical-rellich --n 7", PASS, "grid"),
        _t("scan --catalog hyp-interp --n 5 --kappa 1 --target E1", PASS, "grid"),
        _t("scan --catalog hyp-lower-2 --n 5 --kappa 1 --target W", PASS, "grid"),
        _t("check-pair --catalog hyp-final --n 5 --kappa 1", PASS, "grid"),
    ],
    # Seeded bump batches on small-tree families: quadrature on short
    # supports (linear branch) plus geometry.  The full-gradient shape needs
    # E2 >= 0, which the classical pair meets only from n = 8 on.
    "batch": [
        *[_t(shape.format(f"--catalog classical-rellich --n {n}"),
             INCONCLUSIVE if "--modes" in shape and n < 8 else PASS, "seed")
          for n in (5, 6, 7, 8) for shape in _CLASSICAL_SHAPES],
        _t("verify --catalog hyp-interp --n 5 --kappa 1", PASS, "seed"),
        _t("verify --catalog hyp-lower-1 --n 5 --kappa 1", PASS, "seed"),
        _t("verify --catalog hyp-lower-2 --n 5 --kappa 1", PASS, "seed"),
        _t("verify --catalog hyp-lower-3 --n 5 --kappa 1", PASS, "seed"),
        _t("chain --catalog hyp-final --n 5 --kappa 1 --tests 20", PASS, "seed"),
    ],
    # Disconjugacy certificates: potentials take the deep-start mpmath path,
    # the chain's Bessel-pair link the float path.  c = 0.3 is above the
    # best constant 1/4, so the solution oscillates.
    "ode": [
        *[_t(f"solve-bessel --catalog {fam} --k {k}{c}", FAIL if c else PASS, "R")
          for fam in ("iterlog", "ell-family") for k in (1, 2, 3)
          for c in ("", " --c 0.3")],
        *[_t(f"chain --catalog iterlog --k {k} --n 6 --R 1", PASS, "seed") for k in (1, 2)],
    ],
    # Best-constant search: the only user of sharpness, with wide power-law
    # supports in the log-substituted quadrature branch.
    "estimate": [
        *[_t(f"estimate --catalog classical-rellich --n {n} --shape {shape} --budget 100",
             PASS, "quad-tol")
          for n in (5, 6, 7) for shape in ("delta-vs-gradrad", "gradrad-vs-usq", "chain")],
        _t("estimate --catalog hyp-interp --n 5 --kappa 1 --budget 100", PASS, "quad-tol"),
        _t("estimate --catalog hyp-final --n 5 --kappa 1 --shape chain --budget 100",
           PASS, "quad-tol"),
    ],
}

# Untimed jobs that load every code path's lazy imports before timing.
WARMUP = {
    "scan": ["scan --catalog classical-rellich --n 5 --target E1 --grid 500"],
    "batch": ["verify --catalog classical-rellich --n 5 --tests 2 --grid 500"],
    "ode": ["solve-bessel --catalog iterlog --k 1 --R 1 --t0 0.01 --t1 1"],
    "estimate": ["estimate --catalog classical-rellich --n 5 --budget 13 --grid 500"],
}


def _draw(rng: random.Random, vary: str) -> str:
    # Narrow ranges: every value is new, but a job's cost barely depends on
    # which one it gets, so the seed does not move the metrics.
    if vary == "grid":
        return str(rng.randrange(9900, 10101))
    if vary == "seed":
        return str(rng.randrange(1, 1_000_000))
    if vary == "R":
        return f"{10.0 ** rng.uniform(-0.05, 0.05):.6g}"
    if vary == "quad-tol":
        return f"{10.0 ** rng.uniform(-10.05, -9.95):.4g}"
    raise ValueError(f"unknown knob {vary!r}")


class JobGenerator:
    """Rounds of jobs for one workload, reproducible from the seed."""

    def __init__(self, workload: str, seed: int):
        self.templates = WORKLOADS[workload]
        self._rngs = [random.Random(f"{workload}:{seed}:{i}")
                      for i in range(len(self.templates))]
        self._used = [set() for _ in self.templates]
        self._order = random.Random(f"{workload}:{seed}:order")
        self.rounds = 0

    def next_round(self) -> list[Job]:
        r = self.rounds
        self.rounds += 1
        jobs = []
        for i, tpl in enumerate(self.templates):
            while True:
                value = _draw(self._rngs[i], tpl.vary)
                if value not in self._used[i]:
                    self._used[i].add(value)
                    break
            argv = tuple(shlex.split(tpl.argv)) + (f"--{tpl.vary}", value)
            jobs.append(Job(f"r{r:02d}.t{i:02d}", argv, tpl.expect))
        self._order.shuffle(jobs)
        return jobs
