"""Seeded inputs, jobs and output checks for the three benchmark workloads.

A workload is an endless sequence of rounds. A round is a fixed list of job
shapes; the seed only fills in details that leave a job's cost about the same
(which unit generates a cyclic group, which hole gets which exponent, which
of the subgroups of one order a tower uses), so every round of every seed
does comparable work and whole rounds make runs comparable.

Each job has three parts. ``prepare`` builds fresh inputs and is not timed;
it returns the timed thunk. ``check`` judges the thunk's output without
trusting the program, returning ``None`` when the output is right or a
one-line reason when it is not.

Jobs reach the program only through its public entry points:
``splitcover.cli.main(argv)`` on JSON files for realize, embed, monodromy and
verify-tower, and library calls that an acceptance test also makes for the
discrete layer.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


@dataclass
class Job:
    job_id: str
    kind: str
    prepare: Callable[[], Callable[[], object]]
    check: Callable[[object], Optional[str]]
    command: Optional[str] = None  # CLI subcommand, for reading report numbers
    out_path: Optional[str] = None


# -- permutations as 1-based image lists; products apply left, then right --

def _compose(p, q):
    return tuple(q[v - 1] for v in p)


def _closure(gens, degree):
    ident = tuple(range(1, degree + 1))
    seen = {ident}
    frontier = [ident]
    for x in frontier:
        for g in gens:
            y = _compose(x, tuple(g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frontier


def _shift(n, k):
    """The permutation x -> x + k (mod n) of 1..n."""
    return [(i + k) % n + 1 for i in range(n)]


def _conjugate_regular(src, dst):
    """True when one relabeling carries every src[i] to dst[i].

    Both tuples must generate transitive groups; the relabeling is forced by
    the image of point 1, so every candidate image of 1 is tried.
    """
    if len(src) != len(dst) or not src:
        return False
    n = len(src[0])
    for start in range(1, n + 1):
        pi = {1: start}
        frontier = [1]
        ok = True
        for x in frontier:
            for s, d in zip(src, dst):
                x2, y2 = s[x - 1], d[pi[x] - 1]
                if x2 in pi:
                    if pi[x2] != y2:
                        ok = False
                        break
                else:
                    pi[x2] = y2
                    frontier.append(x2)
            if not ok:
                break
        if ok and len(pi) == n and len(set(pi.values())) == n:
            return True
    return False


def _regular_images(gens, degree):
    """Right-translation images of the generators on the listed elements."""
    elems = _closure(gens, degree)
    index = {e: i + 1 for i, e in enumerate(elems)}
    return [[index[_compose(e, tuple(g))] for e in elems] for g in gens]


# -- running the command line in-process --

def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cli_thunk(argv):
    def run():
        from splitcover import cli  # looked up per call, so traced runs see wrappers
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        return code, err.getvalue()
    return run


def _exit_ok(result) -> Optional[str]:
    code, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[:160]}"
    return None


def _false_verdicts(report) -> Optional[str]:
    failing = [k for k, v in report["verdicts"].items() if not v]
    return f"false verdicts {failing}" if failing else None


# -- realize-embed --

_V4 = ([2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1])
_S3_TRANSPOSITIONS = ([2, 1, 3], [3, 2, 1], [1, 3, 2])
_S3_CYCLES = ([2, 3, 1], [3, 1, 2])
_Z2_CUBED = ([2, 1, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6], [1, 2, 3, 4, 6, 5])
_D4 = [[2, 3, 4, 1], [3, 2, 1, 4]]


def _realize_groups(rng: random.Random):
    """Generating tuples for this round, in round order."""
    s3_kind = rng.choice(((2, 3), (3, 2), (2, 2)))
    if s3_kind == (2, 2):
        s3 = rng.sample(_S3_TRANSPOSITIONS, 2)
    else:
        t, r = rng.choice(_S3_TRANSPOSITIONS), rng.choice(_S3_CYCLES)
        s3 = [t, r] if s3_kind == (2, 3) else [r, t]
    basis = list(_Z2_CUBED)
    rng.shuffle(basis)
    return [
        ("Z2", 2, [_shift(2, 1)]),
        ("Z3", 3, [_shift(3, rng.choice((1, 2)))]),
        ("Z4", 4, [_shift(4, rng.choice((1, 3)))]),
        ("V4", 4, rng.sample(_V4, 2)),
        ("S3", 3, s3),
        ("Z2^3", 6, basis),
        ("Z12", 12, [_shift(12, rng.choice((1, 5, 7, 11)))]),
    ]


def _check_realize(gens, degree):
    order = len(_closure([tuple(g) for g in gens], degree))
    expected_regular = _regular_images(gens, degree)

    def check(result, out_path):
        reason = _exit_ok(result)
        if reason:
            return reason
        doc = _read_json(out_path)
        report = doc["report"]
        reason = _false_verdicts(report)
        if reason:
            return reason
        arts = report["artifacts"]
        regular = arts["regular_generators"]
        if arts["monodromy"]["perms"] != regular:
            return "monodromy differs from the regular generator images"
        if not _conjugate_regular(regular, expected_regular):
            return "regular generator images do not represent the input group"
        if arts["deck_order"] != order or doc["polynomial"]["degree"] != order:
            return f"deck order {arts['deck_order']} != |G| = {order}"
        return None
    return check


def _check_embed(order):
    def check(result, out_path):
        reason = _exit_ok(result)
        if reason:
            return reason
        report = _read_json(out_path)["report"]
        reason = _false_verdicts(report)
        if reason:
            return reason
        if report["artifacts"]["realization"]["artifacts"]["deck_order"] != order:
            return "realized deck order differs from |H|"
        return None
    return check


def _check_rejected(result, out_path) -> Optional[str]:
    code, err = result
    if code not in (2, 3, 4):
        return f"expected a documented non-zero exit code, got {code}"
    if "Traceback" in err:
        return "rejection printed a traceback"
    if os.path.exists(out_path):
        return "rejected run wrote an output file"
    return None


def _cli_job(job_id, kind, command, tmp, inputs, argv_tail, check):
    """A job that writes its input files, then runs one CLI command."""
    out_path = os.path.join(tmp, f"{job_id}.out.json")

    def prepare():
        for name, payload in inputs.items():
            _write_json(os.path.join(tmp, name), payload)
        if os.path.exists(out_path):
            os.remove(out_path)
        argv = [command] + [os.path.join(tmp, a) if a in inputs else a
                            for a in argv_tail]
        return _cli_thunk(argv + ["-o", out_path])

    return Job(job_id, kind, prepare, lambda r: check(r, out_path), command,
               out_path)


def realize_embed_round(rng: random.Random, tmp: str, rid: str) -> list:
    jobs = []
    base_out = None
    for name, degree, gens in _realize_groups(rng):
        group = {"degree": degree, "generators": gens}
        g_file = f"{rid}.{name}.group.json"
        job = _cli_job(f"{rid}.realize-{name}", f"realize {name}", "realize",
                       tmp, {g_file: group}, [g_file],
                       _check_realize(gens, degree))
        if name == "Z2":
            base_out = os.path.join(tmp, f"{job.job_id}.out.json")
        jobs.append(job)

    # embed over the realized Z2 artifact; phi lands on its nontrivial deck
    swap, ident = [2, 1], [1, 2]
    z4 = {"degree": 4, "generators": [_shift(4, rng.choice((1, 3)))]}
    v4 = {"degree": 4, "generators": rng.sample(_V4, 2)}
    phi_z4 = {"gen_images": [swap]}
    phi_v4 = {"gen_images": rng.choice(([swap, ident], [ident, swap],
                                        [swap, swap]))}
    for name, group, phi in (("Z4", z4, phi_z4), ("V4", v4, phi_v4)):
        g_file, p_file = f"{rid}.embed-{name}.group.json", f"{rid}.embed-{name}.phi.json"
        jobs.append(_cli_job(
            f"{rid}.embed-{name}", f"embed {name}", "embed", tmp,
            {g_file: group, p_file: phi},
            [base_out, "--group", g_file, "--phi", p_file], _check_embed(4)))

    d4_file = f"{rid}.D4.group.json"
    jobs.append(_cli_job(f"{rid}.realize-D4", "realize D4 (rejected)", "realize",
                         tmp, {d4_file: {"degree": 4, "generators": _D4}},
                         [d4_file], _check_rejected))
    return jobs


def realize_embed_warmup(tmp: str) -> Job:
    gens = [_shift(2, 1)]
    return _cli_job("warmup.realize-Z2", "realize Z2", "realize", tmp,
                    {"warmup.group.json": {"degree": 2, "generators": gens}},
                    ["warmup.group.json"], _check_realize(gens, 2))


# -- track-verify: radical families z^n - c * prod (w - x_i)^k_i --

# (a, b, holes): monodromy of g = z^a - p and h = z^(ab) - p, then the tower
_PAIRS = ((2, 2, 1), (2, 3, 2), (3, 2, 3), (2, 5, 1), (3, 3, 2), (2, 6, 3))
# (n, holes): families of prime degree that no pair reaches
_SINGLES = ((7, 3), (11, 2))
# Hole exponents k_i, as a pair of mirror images (holes lie symmetrically
# about the basepoint's axis, so both cost the same). Each contains a 1, so
# gcd(n, k_1, ..., k_m) = 1 for every n.
_EXPONENTS = {1: ((1,), (1,)), 2: ((1, 2), (2, 1)), 3: ((1, 1, 2), (2, 1, 1))}
# Constants c of modulus 1: they turn the roots without changing the work.
_UNITS = tuple((Fraction(a, 5), Fraction(b, 5)) for a, b in
               ((5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (3, -4), (-3, 4),
                (-3, -4), (4, 3), (4, -3), (-4, 3), (-4, -3)))


def _frac_json(x: Fraction):
    return [x.numerator, x.denominator]


def _base_space_json(m: int) -> dict:
    """The default layout: outer radius 10, unit holes on the real axis."""
    zero = _frac_json(Fraction(0))
    return {"outer": {"c": [zero, zero], "r": _frac_json(Fraction(10))},
            "holes": [{"c": [_frac_json(x), zero], "r": _frac_json(Fraction(1))}
                      for x in _hole_centers(m)],
            "basepoint": [zero, _frac_json(Fraction(-8))]}


def _hole_centers(m: int):
    return [Fraction(4 * j - 2 * (m - 1)) for j in range(m)]


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _radical_w_coeffs(c, exponents):
    """Coefficients in w of c * prod (w - x_i)^k_i, lowest power first."""
    zero = (Fraction(0), Fraction(0))
    poly = [c]
    for x, k in zip(_hole_centers(len(exponents)), exponents):
        for _ in range(k):
            nxt = [zero] * (len(poly) + 1)
            for i, a in enumerate(poly):
                nxt[i + 1] = (nxt[i + 1][0] + a[0], nxt[i + 1][1] + a[1])
                nxt[i] = (nxt[i][0] - x * a[0], nxt[i][1] - x * a[1])
            poly = nxt
    return poly


def _expand_uv(w_coeffs):
    """Terms [du, dv, re_num, re_den, im_num, im_den] of sum c_k (u + iv)^k."""
    terms = {}
    i_pow = ((1, 0), (0, 1), (-1, 0), (0, -1))
    for k, ck in enumerate(w_coeffs):
        for j in range(k + 1):
            b = math.comb(k, j)
            s = i_pow[j % 4]
            add = _gmul(ck, (Fraction(s[0] * b), Fraction(s[1] * b)))
            old = terms.get((k - j, j), (Fraction(0), Fraction(0)))
            terms[(k - j, j)] = (old[0] + add[0], old[1] + add[1])
    return [[du, dv, re.numerator, re.denominator, im.numerator, im.denominator]
            for (du, dv), (re, im) in sorted(terms.items()) if re or im]


def _radical_artifact(n, c, exponents):
    neg = [(-a, -b) for a, b in _radical_w_coeffs(c, exponents)]
    coeffs = [_expand_uv(neg)] + [[] for _ in range(n - 1)]
    return {"polynomial": {"degree": n, "coeffs": coeffs},
            "base_space": _base_space_json(len(exponents))}


def _check_radical_monodromy(n, exponents):
    """Closed form: a loop around hole i turns every root by 2*pi*k_i/n, so
    it sends the label at z to the label at z * exp(2*pi*i*k_i/n)."""
    def check(result, out_path):
        reason = _exit_ok(result)
        if reason:
            return reason
        report = _read_json(out_path)
        reason = _false_verdicts(report)
        if reason:
            return reason
        mono = report["artifacts"]["monodromy"]
        labels = [complex(re, im) for re, im in mono["root_labels"]]
        if len(labels) != n or len(mono["perms"]) != len(exponents):
            return "wrong fiber size or loop count"
        gap = min(abs(a - b) for i, a in enumerate(labels) for b in labels[i + 1:])
        for perm, k in zip(mono["perms"], exponents):
            turn = cmath.exp(2j * math.pi * k / n)
            for j, z in enumerate(labels):
                dist = [abs(z * turn - y) for y in labels]
                target = min(range(n), key=dist.__getitem__)
                if dist[target] > gap / 4 or perm[j] != target + 1:
                    return f"loop with exponent {k} is not the rotation by {k}/{n}"
        if report["artifacts"]["deck_order"] != n:
            return f"deck order {report['artifacts']['deck_order']} != {n}"
        return None
    return check


def _check_verify_tower(result, out_path) -> Optional[str]:
    reason = _exit_ok(result)
    return reason or _false_verdicts(_read_json(out_path))


def _monodromy_job(job_id, tmp, n, c, exponents):
    f_file = f"{job_id}.poly.json"
    return _cli_job(job_id, f"monodromy n={n} m={len(exponents)}", "monodromy",
                    tmp, {f_file: _radical_artifact(n, c, exponents)}, [f_file],
                    _check_radical_monodromy(n, exponents))


def _verify_tower_job(job_id, tmp, a, b, exponents, g_job, h_job):
    """verify-tower on (h, g). The surjections are read off the splitting
    covers that the two monodromy jobs reported: the groups are cyclic, so
    the action of the loop with exponent 1 generates both deck groups, and
    sending a generator of H = Z_ab to it closes the restriction triangle."""
    hole = exponents.index(1)
    g_poly, h_poly = f"{g_job.job_id}.poly.json", f"{h_job.job_id}.poly.json"
    g_out = os.path.join(tmp, f"{g_job.job_id}.out.json")
    h_out = os.path.join(tmp, f"{h_job.job_id}.out.json")
    out_path = os.path.join(tmp, f"{job_id}.out.json")
    names = {k: os.path.join(tmp, f"{job_id}.{k}.json")
             for k in ("group", "phi", "psi")}

    def prepare():
        g_table = _read_json(g_out)["artifacts"]["splitting_cover"]
        h_table = _read_json(h_out)["artifacts"]["splitting_cover"]
        _write_json(names["group"], {"degree": a * b,
                                     "generators": [_shift(a * b, 1)]})
        _write_json(names["phi"], {"gen_images": [g_table["action"][hole]]})
        _write_json(names["psi"], {"gen_images": [h_table["action"][hole]]})
        if os.path.exists(out_path):
            os.remove(out_path)
        return _cli_thunk(["verify-tower", os.path.join(tmp, h_poly),
                           os.path.join(tmp, g_poly), "--group", names["group"],
                           "--phi", names["phi"], "--psi", names["psi"],
                           "-o", out_path])

    return Job(job_id, f"verify-tower {a * b}/{a} m={len(exponents)}", prepare,
               lambda r: _check_verify_tower(r, out_path), "verify-tower", out_path)


def track_verify_round(rng: random.Random, tmp: str, rid: str) -> list:
    jobs = []
    for a, b, m in _PAIRS:
        exponents = list(rng.choice(_EXPONENTS[m]))
        c = rng.choice(_UNITS)
        g = _monodromy_job(f"{rid}.g{a}-{a * b}", tmp, a, c, exponents)
        h = _monodromy_job(f"{rid}.h{a}-{a * b}", tmp, a * b, c, exponents)
        jobs += [g, h, _verify_tower_job(f"{rid}.t{a}-{a * b}", tmp, a, b,
                                         exponents, g, h)]
    for n, m in _SINGLES:
        jobs.append(_monodromy_job(f"{rid}.f{n}", tmp, n, rng.choice(_UNITS),
                                   list(rng.choice(_EXPONENTS[m]))))
    return jobs


def track_verify_warmup(tmp: str) -> Job:
    return _monodromy_job("warmup.f3", tmp, 3, (Fraction(1), Fraction(1)), [1, 2])


# -- tower-sweep: the discrete layer on many small groups --

def _quaternion_generators():
    """Right multiplication by i and j on the eight unit quaternions."""
    units = [(s, u) for u in "1ijk" for s in (1, -1)]
    table = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
             ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")}

    def mul(x, y):
        (sx, ux), (sy, uy) = x, y
        if ux == "1":
            s, u = 1, uy
        elif uy == "1":
            s, u = 1, ux
        elif ux == uy:
            s, u = -1, "1"
        else:
            s, u = table[(ux, uy)]
        return (sx * sy * s, u)

    index = {x: i + 1 for i, x in enumerate(units)}
    return [[index[mul(x, (1, g))] for x in units] for g in "ij"]


def _sweep_generators():
    groups = {f"Z{n}": (n, [_shift(n, 1)]) for n in range(2, 13)}
    groups.update({
        "S3": (3, [[2, 1, 3], [2, 3, 1]]),
        "D4": (4, [[2, 3, 4, 1], [3, 2, 1, 4]]),
        "Q8": (8, _quaternion_generators()),
        "A4": (4, [[2, 1, 4, 3], [2, 3, 1, 4]]),
        "D6": (6, [[2, 3, 4, 5, 6, 1], [1, 6, 5, 4, 3, 2]]),
    })
    return groups


def _is_normal(elems, sub) -> bool:
    inv = {}
    for g in elems:
        inv[g] = tuple(sorted(range(1, len(g) + 1), key=lambda x: g[x - 1]))
    return all(_compose(_compose(inv[g], s), g) in sub for g in elems for s in sub)


class TowerSweep:
    """Library jobs over the groups of order at most 12 in the sweep list.

    Group data (elements, generating pairs, subgroups) is input generation,
    computed once with the benchmark's own permutation code; the program sees
    only permutations, groups built with its ``closure``, and the intermediate
    coset tables.

    A tower job's cost is set by the order of its subgroup and by whether the
    subgroup is normal (a normal one also runs part 2 of the theorem, several
    times the work), and an embedding job's by the order of its kernel. So a
    round holds one tower job for every (order, normal) class of subgroups of
    every group and one embedding job for every order of proper normal
    subgroup, and the seed picks only within a class: the generating pair,
    the subgroup and the 1-2 elements that generate it, the kernel, and a
    relabeling of the points for the embedding's group.
    """

    def __init__(self):
        self.groups = {}
        for name, (degree, gens) in _sweep_generators().items():
            elems = _closure([tuple(g) for g in gens], degree)
            pairs = []
            subs = {}  # subgroup -> the sets of one or two elements generating it
            for i, a in enumerate(elems):
                for b in elems[i:]:
                    span = frozenset(_closure([a, b], degree))
                    if len(span) == len(elems):
                        pairs += [(a, b), (b, a)] if a != b else [(a, a)]
                    subs.setdefault(span, []).append([a] if a == b else [a, b])
            towers, kernels = {}, {}
            for sub, sub_gens in subs.items():
                normal = _is_normal(elems, sub)
                towers.setdefault((len(sub), normal), []).append((sub, sub_gens))
                if normal and len(sub) < len(elems):
                    kernels.setdefault(len(sub), []).append(sorted(sub))
            self.groups[name] = (degree, gens, elems, pairs,
                                 sorted(towers.items()), sorted(kernels.items()))

    def round(self, rng: random.Random, rid: str) -> list:
        jobs = []
        for name, (degree, gens, elems, pairs, towers, kernels) in self.groups.items():
            for (order, normal), candidates in towers:
                sub, sub_gens = rng.choice(candidates)
                jobs.append(self._tower_job(
                    f"{rid}.tower-{name}-{order}{'n' if normal else ''}", name,
                    degree, elems, rng.choice(pairs), rng.choice(sub_gens)))
            for order, candidates in kernels:
                relabel = list(range(1, degree + 1))
                rng.shuffle(relabel)
                inverse = [0] * degree
                for x, y in enumerate(relabel, 1):
                    inverse[y - 1] = x

                def conj(p):
                    return _compose(_compose(inverse, p), relabel)
                jobs.append(self._embedding_job(
                    f"{rid}.embedding-{name}-{order}", name, degree,
                    [conj(g) for g in gens], len(elems),
                    [conj(k) for k in rng.choice(candidates)]))
        return jobs

    @staticmethod
    def _tower_job(job_id, name, degree, elems, pair, sub_gens):
        sub = frozenset(_closure(sub_gens, degree))
        expect_galois = _is_normal(elems, sub)
        order = len(elems)

        def prepare():
            from splitcover import freecover, permgroup
            a, b = permgroup.Permutation(pair[0]), permgroup.Permutation(pair[1])
            group = permgroup.closure((a, b), degree=degree)
            sub_elems = permgroup.closure(
                tuple(permgroup.Permutation(s) for s in sub_gens),
                degree=degree).elements()
            f_table = freecover.stabilizer_table(group, sub_elems, (a, b))

            def run():
                e_table, _ = freecover.cayley_table((a, b))
                tower = freecover.subtable(e_table, f_table)
                return e_table, tower, freecover.tower_quotient_check(tower)
            return run

        def check(result):
            e_table, tower, rep = result
            if e_table.size != order or tower is None:
                return "wrong top covering or no tower"
            if not rep.part1_holds:
                return "part 1 of the tower theorem fails"
            if rep.f_galois != expect_galois:
                return "mid covering Galois flag disagrees with normality"
            if rep.f_galois and not (
                    rep.part2_holds and rep.kernel_matches_fiber_decks
                    and rep.quotient_order * len(rep.fiber_decks) == e_table.size):
                return "part 2 of the tower theorem fails"
            return None

        return Job(job_id, f"tower {name}", prepare, check)

    @staticmethod
    def _embedding_job(job_id, name, degree, gens, order, normal_sub):
        def prepare():
            from splitcover import embedding, freecover, permgroup
            H = permgroup.closure(tuple(permgroup.Permutation(g) for g in gens),
                                  degree=degree)
            kernel = [permgroup.Permutation(s) for s in sorted(normal_sub)]
            q_table = freecover.stabilizer_table(H, kernel, H.generators)
            f_table, _ = freecover.cayley_table(q_table.action)
            labeling = embedding.cayley_deck_labeling(q_table.action)
            phi = permgroup.GroupHom.from_generator_images(
                H, labeling.target, tuple(labeling(p) for p in q_table.action))
            instance = embedding.EmbeddingInstance(f_table.rank, f_table, H, phi)

            def run():
                solution = embedding.solve(instance, allow_rank_extension=True)
                return solution, embedding.verify(solution, instance)
            return run

        def check(result):
            solution, verified = result
            if not verified:
                return "embedding solution failed verification"
            if solution.E_cover.size != order:
                return "solution covering has the wrong degree"
            return None

        return Job(job_id, f"embedding {name}", prepare, check)

    def warmup(self) -> Job:
        degree, _, elems, pairs, _, _ = self.groups["S3"]
        return self._tower_job("warmup.tower-S3", "S3", degree, elems, pairs[0],
                               [elems[1]])


WORKLOADS = ("realize-embed", "track-verify", "tower-sweep")


class Workload:
    """Round and warm-up jobs for one named workload."""

    def __init__(self, name: str, seed: int, tmp: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.sweep = TowerSweep() if name == "tower-sweep" else None

    def warmup(self) -> Job:
        if self.name == "realize-embed":
            return realize_embed_warmup(self.tmp)
        if self.name == "track-verify":
            return track_verify_warmup(self.tmp)
        return self.sweep.warmup()

    def round(self, index: int) -> list:
        rid = f"r{index}"
        if self.name == "realize-embed":
            return realize_embed_round(self.rng, self.tmp, rid)
        if self.name == "track-verify":
            return track_verify_round(self.rng, self.tmp, rid)
        return self.sweep.round(self.rng, rid)
