"""The four benchmark workloads: seeded inputs, the timed job, its check.

Each workload turns a seeded ``random.Random`` into an endless stream of
*blocks*.  A block is a list of jobs whose composition is the same in
every block and every seed (which family, field and size); the seed
draws the random elements and the order of jobs inside the block.  A
run stops only at a block boundary, so every run measures the same mix
and ``jobs_per_s`` does not depend on where the clock happened to stop.

Jobs reach the engine only through names in ``highwater.__all__`` and
through ``highwater.cli.main``, looked up on the modules at call time,
so the traced run sees every call and later refactors of private code
need no edit here.

For every job the worker calls ``run`` inside the timed region, then
``record`` (untimed), which reduces the output to a small summary, and
after the timed phase ``check``, which compares the summary against
references that do not come from the code path being timed: closed
forms from the acceptance gate, algebraic identities, and values the
benchmark computes from its own literals.  The ``ref_*`` functions are
those references; tests replace them to prove that a wrong answer is
counted.  Records hold no engine objects such as quotients or ideals:
a heap that grows over the pass would slow its later jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

import highwater as hw
from highwater import cli

CHARS = (0, 5, 7, 11)
ORBIT_CUTOFF = 30
EIGENVALUES = (Fraction(1), Fraction(5, 2), Fraction(0), Fraction(2),
               Fraction(1, 2))


def field(p: int):
    return hw.QQ if p == 0 else hw.GF(p)


def in_field(q: Fraction, p: int) -> Fraction:
    """The canonical value of a rational in characteristic p (0 for Q)."""
    q = Fraction(q)
    if p == 0:
        return q
    return Fraction(q.numerator * pow(q.denominator, -1, p) % p)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def elt_digest(x) -> str:
    return text_digest(hw.format_element(x))


# -- references (independent of the timed code path) ------------------------

def ref_collapsed_dim(family: str, n: int) -> int:
    """Quotient dimension of H_n / L_n with the p-span collapsed."""
    return n + n // 2 if family == "H" else 3 * n - 1


def ref_hat_dim(family: str, n: int, p: int):
    """Dimension of the uncollapsed quotient where the gate fixes it.

    The acceptance gate checks the GF(5) corrections at n = 3, 6, 9, 12
    (a(0)-a(n)) and n = 3, 6 (2a(0)-a(-n)-a(n)); elsewhere None.
    """
    if p != 5:
        return None
    if family == "H" and n in (3, 6, 9, 12):
        return n + n // 2 + 2 * (n // 6)
    if family == "L" and n in (3, 6):
        return 3 * n - 1 + 2 * ((n - 1) // 3)
    return None


def ref_orbit_size(family: str, n: int, p: int):
    """Axes in the Miyamoto orbit of a(0), a(1), or None when infinite.

    The reflections about 0 and 1 generate every reflection of the
    subscripts, so the orbit is the set of images of all a(i).  In H_n
    a(i+n) = a(i), giving n images.  In L_n a(i+2n) - a(i+n) =
    a(i+n) - a(i), so a(i+kn) = a(i) + k(a(i+n) - a(i)): p*n images
    over GF(p), infinitely many over Q.
    """
    if family == "H":
        return n
    return p * n if p else None


def ref_weight(terms, p: int) -> Fraction:
    """Weight of a literal the benchmark wrote: its a-coefficient sum."""
    return in_field(sum((c for kind, _, c in terms if kind == "a"),
                        Fraction(0)), p)


def ref_eigenvalues(p: int) -> set:
    return {in_field(q, p) for q in EIGENVALUES}


# -- seeded element generation ------------------------------------------------

def random_coeff(rng, p: int) -> Fraction:
    if p == 0:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.choice((1, 1, 2, 3, 4)))
    return Fraction(rng.randrange(1, p))


def random_terms(rng, p: int, nterms: int, bound: int, shift: int = 0,
                 kinds: str | None = None):
    """(kind, subscripts, coeff) triples with a-subscripts near ``shift``.

    ``kinds``, when given, fixes the kind of each term; else the seed
    draws it.
    """
    out = []
    for j in range(nterms):
        kind = kinds[j] if kinds else rng.choice("aaassp")
        if kind == "a":
            sub = (shift + rng.randint(-bound, bound),)
        elif kind == "s":
            sub = (rng.randint(1, bound),)
        else:
            sub = (rng.randint(1, 2), 3 * rng.randint(1, max(1, bound // 3)))
        out.append((kind, sub, random_coeff(rng, p)))
    return out


def build_element(p: int, terms):
    return hw.from_terms(field(p), [((kind,) + sub, c)
                                    for kind, sub, c in terms])


def literal(terms) -> str:
    """Element literal in the CLI grammar, e.g. ``+ 3*a(2) - 1/2*s(1)``."""
    parts = []
    for kind, sub, c in terms:
        atom = f"{kind}({','.join(map(str, sub))})"
        mag = abs(c)
        parts.append(f"{'-' if c < 0 else '+'} "
                     + (atom if mag == 1 else f"{mag}*{atom}"))
    return " ".join(parts)


def family_gen(p: int, family: str, n: int):
    F = field(p)
    if family == "H":
        return hw.axis(F, 0) - hw.axis(F, n)
    return (hw.axis(F, 0).scale(F.scalar(2)) - hw.axis(F, -n)
            - hw.axis(F, n))


def shift_member(p: int, family: str, n: int, i: int = 7):
    """An element the ideal of the family generator contains.

    Pure-a members form a principal Laurent ideal generated by the
    pattern, 1 - t^n for a(0)-a(n) and (1 - t^n)^2 for 2a(0)-a(-n)-a(n),
    so their shifted multiples are members.
    """
    F = field(p)
    a = lambda j: hw.axis(F, j)
    if family == "H":
        return a(i) - a(i + 2 * n)
    return a(i) - a(i + n).scale(F.scalar(2)) + a(i + 2 * n)


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    chars = CHARS
    count_blocks = 1       # blocks replayed by the counting pass
    digest_blocks = 1      # blocks whose outputs form the printed digest
    # peak RSS is read after this many blocks, which every pass reaches,
    # so that it measures the same work whatever the host's speed
    rss_blocks = 1
    # percentile of job_tail_ms: the highest of 99, 98, 97, 95, 90 that
    # leaves at least ten jobs beyond it in every pass at the commit that
    # set it and, where blocks repeat the same jobs, falls on a whole job
    # of a block; fixed, so it does not move with the jobs a pass completes
    tail_pct = 90

    def blocks(self, rng):
        raise NotImplementedError

    def run(self, job, state):
        raise NotImplementedError

    def record(self, job, out):
        """A small summary of the output; runs untimed after the job."""
        raise NotImplementedError

    def check(self, job, rec) -> bool:
        raise NotImplementedError

    def digest_text(self, job, rec) -> str:
        raise NotImplementedError

    def close(self):
        pass


class Products(Workload):
    name = "products"
    count_blocks = 25
    digest_blocks = 10
    rss_blocks = 100
    # p98 leaves about 14 jobs beyond it, as many as the long pauses a
    # pass sees while the product cache grows (they recur each time the
    # heap grows by a quarter, as full garbage collections do), so it read
    # a pause in some passes and a product in others: its interquartile
    # range over ten seeds was 0.20 of its median; p97 stays among the
    # products, at 0.07
    tail_pct = 97

    def blocks(self, rng):
        while True:
            block = []
            for p in CHARS:
                shift = rng.randint(-10 ** 5, 10 ** 5)
                xyz = [random_terms(rng, p, rng.randint(12, 15), 8, shift)
                       for _ in range(3)]
                x, y, z = (build_element(p, t) for t in xyz)
                aut = (hw.theta(rng.randint(-50, 50)) if rng.random() < 0.5
                       else hw.tau(rng.randint(-50, 50)))
                block.append((p, x, y, z, aut))
            rng.shuffle(block)
            yield block

    def run(self, job, state):
        _, x, y, z, aut = job
        xy = x * y
        xyz = xy * z
        return xy, xyz, hw.apply(aut, xy)

    def record(self, job, out):
        xy, xyz, img = out
        return (elt_digest(xy), elt_digest(xyz), elt_digest(img),
                xy.weight(), xyz.weight())

    def check(self, job, rec):
        _, x, y, z, aut = job
        d_xy, _, d_img, w_xy, w_xyz = rec
        wx, wy, wz = x.weight(), y.weight(), z.weight()
        return (w_xy == wx * wy and w_xyz == wx * wy * wz
                and elt_digest(y * x) == d_xy
                and elt_digest(hw.apply(aut, x) * hw.apply(aut, y)) == d_img)

    def digest_text(self, job, rec):
        return " ".join(rec[:3])


class Session(Workload):
    name = "session"
    rss_blocks = 3
    tail_pct = 97
    SUITES = (("fusion", 8), ("products", 4), ("twisted", 9),
              ("quotients", 8), ("miyamoto", 12))
    # one-liners per block, by command; eigen runs at volume
    ONE_LINERS = (("eigen", 36), ("mul", 8), ("weight", 4), ("classify", 4),
                  ("member", 4), ("quotient", 4))

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.out_path = os.path.join(out_dir, f"session-{os.getpid()}.json")

    def blocks(self, rng):
        while True:
            block = [(("verify", p, suite), ["verify", suite, "--char", str(p),
                                              "--imax", str(imax)])
                     for suite, imax in self.SUITES for p in CHARS]
            k = 0
            for cmd, count in self.ONE_LINERS:
                for _ in range(count):
                    block.append(self._one_liner(rng, cmd, CHARS[k % 4]))
                    k += 1
            rng.shuffle(block)
            yield block

    def _one_liner(self, rng, cmd, p):
        """((command, char, reference), argv) for one seeded command."""
        c = ["--char", str(p)]
        if cmd in ("mul", "eigen", "weight"):
            terms = [random_terms(rng, p, rng.randint(2, 6), 6)
                     for _ in range(2)]
            x, y = (literal(t) for t in terms)
            wx, wy = (ref_weight(t, p) for t in terms)
            if cmd == "mul":
                return (cmd, p, in_field(wx * wy, p)), ["mul"] + c + [x, y]
            if cmd == "weight":
                return (cmd, p, wx), ["weight"] + c + [x]
            axis = str(rng.randint(-3, 3))
            return (cmd, p, None), ["eigen"] + c + [x, "--axis", axis]
        family = rng.choice("HL")
        n = rng.randint(2, 6)
        gen = (f"a(0) - a({n})" if family == "H"
               else f"2*a(0) - a({-n}) - a({n})")
        if cmd == "classify":
            return (cmd, p, None), ["ideal", "classify"] + c + ["--gen", gen]
        if cmd == "quotient":
            return ((cmd, p, (family, n)),
                    ["quotient"] + c + ["--gen", gen, "--collapse-j"])
        i = rng.randint(-6, 6)
        want = rng.random() < 0.5
        if not want:
            elt = f"a({i})"
        elif family == "H":
            elt = f"a({i}) - a({i + 2 * n})"
        else:
            elt = f"a({i}) - 2*a({i + n}) + a({i + 2 * n})"
        return ((cmd, p, want),
                ["ideal", "member"] + c + ["--gen", gen, "--elt", elt])

    def run(self, job, state):
        return cli.main(job[1] + ["--format", "json", "--out", self.out_path])

    def record(self, job, code):
        with open(self.out_path) as fh:
            text = fh.read()
        os.remove(self.out_path)
        out = json.loads(text)
        out.pop("detail", None)
        return code, out, text_digest(text)

    def check(self, job, rec):
        (cmd, p, ref), _ = job
        code, out, _ = rec
        if code != 0:
            return False
        if cmd == "verify":
            return out["ok"] is True and out["suite"] == ref
        if cmd == "weight":
            return in_field(Fraction(out["weight"]), p) == ref
        if cmd == "mul":
            w = sum((Fraction(t["coeff"]) for t in out["result"]["terms"]
                     if t["key"]["kind"] == "a"), Fraction(0))
            return in_field(w, p) == ref
        if cmd == "eigen":
            allowed = ref_eigenvalues(p)
            return out["total"] is True and all(
                in_field(Fraction(c["eigenvalue"]), p) in allowed
                for c in out["components"])
        if cmd == "classify":
            return out["kind"] == "pattern"
        if cmd == "member":
            return out["member"] is ref
        return out["dim"] == ref_collapsed_dim(*ref)

    def digest_text(self, job, rec):
        return rec[2]

    def close(self):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)


class Ideals(Workload):
    name = "ideals"
    chars = (0, 5, 7, 11, 13)
    # family sizes by field; 12 and 6 meet the gate's GF(5) dimensions
    H_SIZES = (16, 12, 20, 24, 30)
    L_SIZES = (4, 6, 8, 10, 12)
    # reads after each kind of build; family ideals give costly reads,
    # so most reads are of that kind and the median read is one of them.
    # A random ideal may be full, so its reads cost nothing, or not; few
    # reads of it keep that draw from moving the median.
    READS = {"family": 7, "random": 1}
    rss_blocks = 3
    tail_pct = 97

    def blocks(self, rng):
        b = 0
        while True:
            groups = []
            for i, p in enumerate(self.chars):
                for family, n in (("H", self.H_SIZES[i]),
                                  ("L", self.L_SIZES[i])):
                    groups.append(self._group(rng, p, ("family", family, n),
                                              [family_gen(p, family, n)]))
                terms = [random_terms(rng, p, rng.randint(2, 6), 6)
                         for _ in range(rng.randint(1, 3))]
                corrected = (i + b) % 2 == 0
                if corrected:
                    # weight-corrected generators give proper ideals
                    terms = [t + [("a", (7,), -ref_weight(t, p))]
                             for t in terms]
                gens = [build_element(p, t) for t in terms]
                groups.append(self._group(rng, p, ("random", corrected),
                                          gens))
            rng.shuffle(groups)
            b += 1
            yield [job for group in groups for job in group]

    def _group(self, rng, p, how, gens):
        """A build and its reads.

        A read's cost grows with the distance of its element from the
        window, its side and its number of a-terms, so these are spread
        over the reads of a group the same way in every seed; the seed
        draws the subscripts and the coefficients.

        Family generators and weight-corrected ones have weight 0, so
        their ideal lies in the kernel of the weight map and a read must
        keep the weight of its element; the reads carry that weight,
        taken from the literal, or None when the ideal need not keep it.
        """
        weight0 = how[0] == "family" or how[1]
        jobs = [("build", p, how, gens)]
        reads = self.READS[how[0]]
        for k in range(reads):
            shift = (-1) ** k * (200 + 800 * (2 * k + 1) // (2 * reads))
            terms = random_terms(rng, p, 4 + k % 5, 6, shift,
                                 kinds="aaspaasa")
            jobs.append(("read", p, build_element(p, terms),
                         ref_weight(terms, p) if weight0 else None))
        return jobs

    def run(self, job, state):
        if job[0] == "build":
            ideal = hw.ideal_of(job[3])
            q = (hw.FiniteAlgebra(ideal) if ideal.kind in ("pattern", "full")
                 else None)
            state["ideal"] = ideal
            return ideal, q
        ideal = state["ideal"]
        return ideal, ideal.reduce(job[2])

    def record(self, job, out):
        ideal, res = out
        if job[0] == "read":
            return {"idempotent": ideal.reduce(res) == res,
                    "difference_in": ideal.contains(job[2] - res),
                    "weight": res.weight().as_fraction(),
                    "text": hw.format_element(res)}
        _, p, how, gens = job
        rec = {"summary": ideal.summary(), "dim": res.dim if res else None,
               "gens_in": all(ideal.contains(g) for g in gens),
               "proper": ideal.is_proper(),
               "axis_in": ideal.contains(hw.axis(ideal.field, 0))}
        if how[0] == "family":
            rec["shift_in"] = ideal.contains(shift_member(p, *how[1:]))
        return rec

    def check(self, job, rec):
        if job[0] == "read":
            want = job[3]
            return (rec["idempotent"] and rec["difference_in"]
                    and (want is None or rec["weight"] == want))
        _, p, how, gens = job
        # proper ideals never contain an axis; the ideal is zero exactly
        # when every generator is 0 (a weight-corrected set can cancel to
        # 0); weight-0 ideals are never full.  ``is_proper`` is False for
        # both zero and full ideals, so the kind is read instead.
        kind = rec["summary"]["kind"]
        ok = (rec["gens_in"] and not (rec["proper"] and rec["axis_in"])
              and (kind == "zero") == all(g.is_zero() for g in gens))
        if how[0] == "family" or how[1]:
            ok = ok and kind != "full"
        if how[0] == "family":
            want = ref_hat_dim(how[1], how[2], p)
            ok = (ok and kind == "pattern"
                  and rec["shift_in"]
                  and (want is None or rec["dim"] == want))
        return ok

    def digest_text(self, job, rec):
        if job[0] == "read":
            return rec["text"]
        return json.dumps([rec["summary"], rec["dim"]], sort_keys=True)


class Orbits(Workload):
    name = "orbits"
    # (family, collapse p-span, sizes); L_n over Q has an open orbit
    MENU = (("H", True, (3, 4, 5, 6)), ("Hhat", False, (3, 4, 5, 6)),
            ("L", True, (1, 2)))
    rss_blocks = 3
    tail_pct = 90

    def blocks(self, rng):
        while True:
            block = [(family, collapse, n, p)
                     for family, collapse, sizes in self.MENU
                     for n in sizes for p in CHARS]
            rng.shuffle(block)
            yield block

    def run(self, job, state):
        family, collapse, n, p = job
        make = hw.family_Ln if family == "L" else hw.family_Hn
        q = make(n, field(p), collapse_j=collapse)
        return q, hw.axis_orbit(q, cutoff=ORBIT_CUTOFF)

    def record(self, job, out):
        q, orbit = out
        # every axis image is an idempotent of the quotient
        idempotents = all(q.mult(v, v) == list(v) for v in orbit.axes)
        return q.dim, orbit.closed, len(orbit.axes), idempotents

    def check(self, job, rec):
        family, collapse, n, p = job
        dim, closed, naxes, idempotents = rec
        base = family[0]
        want = (ref_collapsed_dim(base, n) if collapse
                else ref_hat_dim(base, n, p))
        ok = idempotents and (want is None or dim == want)
        size = ref_orbit_size(base, n, p)
        if size is None or size > ORBIT_CUTOFF:
            # open orbit: only closedness is asserted, never its axis count
            return ok and not closed
        return ok and closed and naxes == size

    def digest_text(self, job, rec):
        dim, closed, naxes, _ = rec
        axes = naxes if closed else "open"
        return f"{job[0]}{job[2]}@{job[3]} dim={dim} axes={axes}"


def make(name: str, out_dir: str) -> Workload:
    if name == "session":
        return Session(out_dir)
    return {"products": Products, "ideals": Ideals,
            "orbits": Orbits}[name]()


NAMES = ("products", "session", "ideals", "orbits")
