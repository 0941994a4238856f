"""The four benchmark workloads: input generation, one op, and its check.

Every workload is a closed loop driven by one client with no think time:
the next op starts when the previous one returns.  Inputs come only from
the workload seed.  Ops call the library through module attributes
(``faces.f_matrix``, not an imported name), so the tracer's rebinding of
those attributes reaches them.

A check returns None when the op's output is correct and a one-line
reason otherwise.  Checks run outside the timed region and use a route
other than the op's wherever one exists.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from arrlevels import config, faces, gmatrix, motion, relations, span
from arrlevels.errors import GenericityError


class Raised:
    """Marks an op that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def _dump(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        # The warm-up input does not depend on the seed, so that set-up does
        # the same work in every run; motion op costs vary tenfold by input.
        self.warm_rng = random.Random(f"{self.name}:warmup")
        self.workdir = workdir

    def make_input(self, rng: random.Random):
        raise NotImplementedError

    def inputs(self, count: int) -> list:
        return [self.make_input(self.rng) for _ in range(count)]

    def warmup_input(self):
        return self.make_input(self.warm_rng)

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError


class DualCount(Workload):
    """f_matrix + fstar_matrix of a fresh random(10,4): no cache reuse, and
    most time goes to enumerating the Gale dual's patterns."""

    name = "dual-count"
    batch = 64

    def make_input(self, rng):
        return config.gen_random(10, 4, rng.randrange(2**31))

    def op(self, v):
        return faces.f_matrix(v), faces.fstar_matrix(v)

    def check(self, v, out):
        fm, fsm = out
        for s in range(v.d + 1):
            want = relations.total_face_count(v.n, v.d, s)
            if fm.row_sum(s) != want:
                return f"f row {s} sums to {fm.row_sum(s)}, expected {want}"
        fwd = relations.f_fstar_transform(faces.f_polynomial(fm), v.n, v.r, "f_to_fstar")
        if fwd != faces.fstar_polynomial(fsm):
            return "fstar_matrix differs from the f->f* transform of f"
        return None


class MotionTrace(Workload):
    """g_from_motion on a fresh random(6,3) pair, retried on perturbed
    targets: Sturm isolation, determinants and Fraction arithmetic."""

    name = "motion-trace"
    batch = 128
    perturb_seeds = (1, 2, 3)

    def make_input(self, rng):
        return (
            config.gen_random(6, 3, rng.randrange(2**31)),
            config.gen_random(6, 3, rng.randrange(2**31)),
        )

    def op(self, pair):
        v, w = pair
        try:
            return w, motion.g_from_motion(v, w)
        except GenericityError as exc:
            last = exc
        for pseed in self.perturb_seeds:
            target = motion.perturb(w, seed=pseed)
            try:
                return target, motion.g_from_motion(v, target)
            except GenericityError as exc:
                last = exc
        raise last

    def check(self, pair, out):
        v, _ = pair
        target, g = out
        want = gmatrix.g_from_fmatrices(faces.f_matrix(v), faces.f_matrix(target))
        if g != want:
            return f"motion g {g.rows} != algebraic g {want.rows}"
        return None


class IdentityCheck(Workload):
    """Every identity check on a random(7,3) pair, with warm f_matrix
    caches: poly2, relations, gmatrix and span do the work."""

    name = "identity-check"
    batch = 128

    def make_input(self, rng):
        return (
            config.gen_random(7, 3, rng.randrange(2**31)),
            config.gen_random(7, 3, rng.randrange(2**31)),
            rng.randrange(2**31),
        )

    def op(self, inp):
        v, w, span_seed = inp
        held: dict[str, bool] = {}
        for tag, c in (("v", v), ("w", w)):
            held[f"{tag}.totals"] = relations.check_totals(c).holds
            held[f"{tag}.antipodal"] = relations.check_antipodal(c).holds
            held[f"{tag}.dehn-sommerville"] = relations.check_dehn_sommerville(c).holds
            p = faces.f_polynomial(faces.f_matrix(c))
            fwd = relations.f_fstar_transform(p, c.n, c.r, "f_to_fstar")
            back = relations.f_fstar_transform(fwd, c.n, c.r, "fstar_to_f")
            held[f"{tag}.f-to-fstar"] = fwd == faces.fstar_polynomial(faces.fstar_matrix(c))
            held[f"{tag}.round-trip"] = back == p
        for mode in ("contract", "delete"):
            held[mode] = gmatrix.check_contraction_deletion(v, w, mode).holds
        # Six samples need not reach full rank, so check the report's own
        # consistency: the greedy basis and the exact rank are two routes.
        rep = span.g_span_rank(7, 3, "general", 6, span_seed)
        held["span"] = 0 < rep.achieved_rank == len(rep.basis_seeds) <= rep.theoretical_dim
        return held

    def check(self, inp, held):
        failed = sorted(k for k, ok in held.items() if not ok)
        return f"reports not holding: {failed}" if failed else None


# Byte-exact stdout of two README examples.
README_FACES_C53 = """{
  "d": 2,
  "n": 5,
  "rows": [
    [
      1,
      5,
      5,
      5,
      5,
      1
    ],
    [
      5,
      10,
      10,
      10,
      5,
      0
    ],
    [
      5,
      5,
      5,
      5,
      0,
      0
    ]
  ]
}
"""

README_G_BOTH = """{
  "r": 3,
  "n": 5,
  "g": [
    [
      1,
      0,
      -1
    ],
    [
      2,
      0,
      -2
    ],
    [
      -2,
      0,
      2
    ],
    [
      -1,
      0,
      1
    ]
  ],
  "small_g": [
    [
      1
    ],
    [
      2
    ]
  ],
  "via": "both",
  "agreement": true
}
"""


class CliSession(Workload):
    """One CLI subprocess per op, cycling through every subcommand on the
    README configurations and a seeded random(9,4): interpreter start,
    import and argparse are most of each op."""

    name = "cli-session"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=str(src))
        workdir.mkdir(parents=True, exist_ok=True)
        self.r94_seed = self.rng.randrange(2**31)
        configs = {
            "c53.json": config.gen_cyclic(5, 3),
            "co53.json": config.gen_cocyclic(5, 3),
            "cy53.json": config.gen_cyclic(5, 3, [1, 2, 4, 8, 16]),
            "r94.json": config.gen_random(9, 4, self.r94_seed),
        }
        for fname, v in configs.items():
            (workdir / fname).write_text(_dump(config.config_to_json(v)))
        r94 = configs["r94.json"]
        self.r94_text = (workdir / "r94.json").read_text()
        self.r94_f = faces.f_matrix(r94)
        self.r94_fstar_poly = relations.f_fstar_transform(
            faces.f_polynomial(self.r94_f), r94.n, r94.r, "f_to_fstar"
        )
        self.cycle = [
            ("gen", ["--kind", "random", "--n", "9", "--r", "4", "--seed", str(self.r94_seed)]),
            ("faces", ["c53.json"]),
            ("faces", ["r94.json", "--patterns", "--format", "csv"]),
            ("fstar", ["r94.json"]),
            ("fstar", ["c53.json", "--oracle", "both"]),
            ("g", ["--from", "co53.json", "--to", "cy53.json", "--via", "both"]),
            ("motion", ["--from", "co53.json", "--to", "cy53.json", "--trace"]),
            ("verify", ["--relation", "ds", "c53.json"]),
            ("verify", ["--relation", "duality", "c53.json"]),
            ("verify", ["--relation", "closed-form", "--n", "7", "--r", "3"]),
            ("span", ["--n", "7", "--r", "3", "--samples", "10", "--seed", "0"]),
        ]
        self.batch = len(self.cycle)
        self.next_index = 0

    def inputs(self, count):
        out = []
        for _ in range(count):
            out.append(self.cycle[self.next_index % len(self.cycle)])
            self.next_index += 1
        return out

    def warmup_input(self):
        return ("verify", ["--relation", "totals", "c53.json"])

    def op(self, cmd):
        sub, args = cmd
        proc = subprocess.run(
            [sys.executable, "-m", "arrlevels.cli", sub, *args],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, cmd, out):
        sub, args = cmd
        code, stdout = out
        if code != 0:
            return f"{sub} exited with {code}"
        if sub == "gen":
            return None if stdout == self.r94_text else "gen output differs from the library's"
        if sub == "faces" and args == ["c53.json"]:
            return None if stdout == README_FACES_C53 else "faces c53.json differs from the README"
        if sub == "g":
            return None if stdout == README_G_BOTH else "g --via both differs from the README"
        if sub == "faces":
            return self._check_faces_csv(stdout)
        try:
            obj = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{sub} printed invalid JSON"
        if sub == "fstar" and "--oracle" in args:
            return None if obj.get("agreement") is True else "fstar oracles disagree"
        if sub == "fstar":
            got = faces.fstar_polynomial(faces.FStarMatrix(4, 9, tuple(map(tuple, obj["rows"]))))
            return None if got == self.r94_fstar_poly else "fstar differs from the f->f* transform"
        if sub == "motion":
            return self._check_motion(obj)
        if sub == "verify":
            return None if obj.get("all_hold") is True else f"verify {args[1]} does not hold"
        if sub == "span":
            return None if obj.get("full_rank") is True else "span is not full rank"
        return f"no check for {sub}"

    def _check_faces_csv(self, stdout):
        table, _, patterns = stdout.partition("\n\n")
        rows = [[int(x) for x in line.split(",")] for line in table.splitlines()]
        if tuple(map(tuple, rows)) != self.r94_f.rows:
            return "faces csv rows differ from f_matrix"
        for s, row in enumerate(rows):
            if sum(row) != relations.total_face_count(9, 3, s):
                return f"faces csv row {s} has the wrong total"
        if len(patterns.split()) != sum(map(sum, rows)):
            return "pattern list length differs from the face count"
        return None

    def _check_motion(self, events):
        # Summing the per-event increments must give the README's g.
        r, n = 3, 5
        g = [[0] * (n - r + 1) for _ in range(r + 1)]
        for ev in events:
            j, k = ev["type"]
            if 2 * j != r and 2 * k != n - r:
                g[j][k] += 1
                g[r - j][n - r - k] += 1
                g[r - j][k] -= 1
                g[j][n - r - k] -= 1
        want = json.loads(README_G_BOTH)["g"]
        return None if g == want else f"motion events sum to {g}, README g is {want}"


WORKLOADS = {w.name: w for w in (DualCount, MotionTrace, IdentityCheck, CliSession)}
