import json
import random
from fractions import Fraction

import pytest

from splitcover import monodromy
from splitcover.cli import build_parser, main
from splitcover.permgroup import Permutation, closure
from splitcover.qipoly import QiPoly
from splitcover.wpoly import (
    BaseSpace,
    BivariatePolyQi,
    Disc,
    GaussianRational,
    WeierstrassPoly,
    default_base_space,
)


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def perm(*cycles, n):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def z2_artifact(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    group = write_json(tmp / "z2.json",
                       closure((perm((1, 2), n=2),)).to_json())
    out = tmp / "realized.json"
    code = main(["realize", group, "-o", str(out)])
    assert code == 0
    return tmp, group, out, json.loads(out.read_text())


def test_realize_cli(z2_artifact):
    _, _, _, payload = z2_artifact
    assert payload["schema_version"] == 1
    assert payload["polynomial"]["degree"] == 2
    assert payload["report"]["verdicts"]["certificate_valid"]
    assert payload["report"]["command"] == "realize"


def test_monodromy_cli(z2_artifact, capsys):
    _, _, out, _ = z2_artifact
    code = main(["monodromy", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["irreducible"] is True
    assert report["artifacts"]["monodromy"]["perms"] == [[2, 1]]


@pytest.mark.parametrize("k", [20, 150])
def test_monodromy_of_roots_far_below_one(k, tmp_path, capsys):
    # z^2 - 10^-k w: roots of modulus about 10^(-k/2) are proved distinct by
    # their enclosures and labelled, at any scale
    a0 = QiPoly.from_gaussian([qi(0), qi(Fraction(-1, 10 ** k))]).to_bivariate()
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.zero()])
    poly = write_json(tmp_path / "poly.json", {
        "polynomial": f.to_json(), "base_space": default_base_space(1).to_json()})
    assert main(["monodromy", poly]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["monodromy"]["perms"] == [[2, 1]]


@pytest.mark.parametrize("space, w0", [
    (default_base_space(1), 0),
    (BaseSpace(Disc((0, 0), 10), (Disc((0, 8), Fraction(1, 10)),), (0, -8)), 8j),
], ids=["one_hole", "small_hole"])
def test_a_step_of_the_whole_loop_is_certified_or_cut(space, w0, tmp_path, capsys,
                                                      monkeypatch):
    # z^2 - (w - w0) with w0 in the hole has monodromy [[2, 1]]; with a first
    # step of the whole loop (a step is a fraction of the loop's arclength),
    # only steps the Rouche test proves are taken
    monkeypatch.setattr(monodromy, "_INITIAL_STEP", 1)
    a0 = QiPoly.from_gaussian([qi(w0.real, w0.imag), qi(-1)]).to_bivariate()
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.zero()])
    poly = write_json(tmp_path / "poly.json", {"polynomial": f.to_json(),
                                               "base_space": space.to_json()})
    assert main(["monodromy", poly]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["monodromy"]["perms"] == [[2, 1]]
    assert report["artifacts"]["tracking"]["certified"] is True


def test_embed_cli_and_verify_tower(z2_artifact, capsys):
    tmp, _, out, _ = z2_artifact
    h_group = write_json(tmp / "z4.json",
                         closure((perm((1, 2, 3, 4), n=4),)).to_json())
    phi = write_json(tmp / "phi.json", {"gen_images": [[2, 1]]})
    embed_out = tmp / "embedded.json"
    code = main(["embed", str(out), "--group", h_group, "--phi", phi,
                 "-o", str(embed_out)])
    assert code == 0
    payload = json.loads(embed_out.read_text())
    assert payload["polynomial"]["degree"] == 4
    assert payload["report"]["verdicts"]["restriction_triangle"]

    psi_images = payload["report"]["artifacts"]["embedding_solution"]["psi"]["gen_images"]
    psi = write_json(tmp / "psi.json", {"gen_images": psi_images})
    code = main(["verify-tower", str(embed_out), str(out),
                 "--group", h_group, "--phi", phi, "--psi", psi])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["restriction_triangle"]


def test_embed_no_rank_extension_fails_for_klein(z2_artifact, capsys):
    tmp, _, out, _ = z2_artifact
    v4 = closure((perm((1, 2), (3, 4), n=4), perm((1, 3), (2, 4), n=4)))
    h_group = write_json(tmp / "v4.json", v4.to_json())
    phi = write_json(tmp / "phi_v4.json",
                     {"gen_images": [[2, 1], [1, 2]]})
    code = main(["embed", str(out), "--group", h_group, "--phi", phi,
                 "--no-allow-rank-extension"])
    assert code == 2
    assert "no solution" in capsys.readouterr().err


def test_verify_tower_detects_bad_psi(z2_artifact, capsys):
    tmp, _, out, _ = z2_artifact
    h_group = write_json(tmp / "z4b.json",
                         closure((perm((1, 2, 3, 4), n=4),)).to_json())
    phi = write_json(tmp / "phi_b.json", {"gen_images": [[2, 1]]})
    embed_out = tmp / "embedded_b.json"
    assert main(["embed", str(out), "--group", h_group, "--phi", phi,
                 "-o", str(embed_out)]) == 0
    bad_psi = write_json(tmp / "bad_psi.json", {"gen_images": [[1, 2, 3, 4]]})
    code = main(["verify-tower", str(embed_out), str(out),
                 "--group", h_group, "--phi", phi, "--psi", bad_psi])
    capsys.readouterr()
    assert code == 2


def test_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["realize", missing]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["realize", str(bad)]) == 4
    err = capsys.readouterr().err
    assert "line" in err
    schema = write_json(tmp_path / "schema.json", {"degree": 2})
    assert main(["realize", schema]) == 4
    assert "generators" in capsys.readouterr().err


def test_cli_seed_recorded_and_deterministic(z2_artifact, capsys):
    _, group, _, _ = z2_artifact
    assert main(["realize", group]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["realize", group]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["polynomial"] == second["polynomial"]
    assert first["report"]["verdicts"] == second["report"]["verdicts"]


def test_realize_unsupported_group_exits_4(tmp_path, capsys):
    d4 = write_json(tmp_path / "d4.json",
                    {"degree": 4, "generators": [[2, 3, 4, 1], [3, 2, 1, 4]]})
    out = tmp_path / "d4.out.json"
    assert main(["realize", d4, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert "unsupported group" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("re_den, outer_r", [(0, [10, 1]), (1, [10, 0])],
                         ids=["polynomial", "base_space"])
def test_zero_denominator_is_input_error(re_den, outer_r, tmp_path, capsys):
    poly = {"degree": 2, "coeffs": [[[1, 0, -1, re_den, 0, 1]], []]}  # z^2 - u
    space = default_base_space(1).to_json()
    space["outer"]["r"] = outer_r
    code = main(["monodromy", write_json(tmp_path / "poly.json", poly),
                 "--base-space", write_json(tmp_path / "space.json", space)])
    assert code == 4
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["monodromy", "f.json"],
    ["verify-tower", "h.json", "g.json", "--group", "h.json", "--phi", "p.json",
     "--psi", "q.json"],
    ["realize", "g.json"],
    ["embed", "f.json", "--group", "h.json", "--phi", "p.json"],
])
def test_grid_flag_is_refused(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["--grid", "21"])


@pytest.mark.parametrize("argv, offending", [
    (["realize"], "group"),
    (["bogus"], "bogus"),
    (["realize", "g.json", "--config", "cfg.json"], "--config"),
    (["monodromy", "f.json", "--seed", "7"], "--seed"),
], ids=["missing_positional", "unknown_command", "config", "seed"])
def test_usage_error_exits_4(argv, offending, capsys):
    # argparse's own code 2 would read as a verification failure; the flags
    # --config and --seed are gone
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert "input error" in err and offending in err


def test_embed_self_check_failure_exits_2(z2_artifact, tmp_path, capsys,
                                          monkeypatch):
    from splitcover import embedding

    _, _, out, _ = z2_artifact
    # the self-check that solve runs on its own solution
    monkeypatch.setattr(embedding, "verify", lambda *args: False)
    h_group = write_json(tmp_path / "z4.json",
                         closure((perm((1, 2, 3, 4), n=4),)).to_json())
    phi = write_json(tmp_path / "phi.json", {"gen_images": [[2, 1]]})
    embed_out = tmp_path / "embedded.json"
    code = main(["embed", str(out), "--group", h_group, "--phi", phi,
                 "-o", str(embed_out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "verification failure" in err
    assert "Traceback" not in err
    assert not embed_out.exists()


@pytest.mark.parametrize("target, doc", [
    ("group", {"degree": 2, "generators": [[2.9, 1.2]]}),
    ("group", {"degree": 2, "generators": [[True, 2]]}),
    ("group", {"degree": 2.7, "generators": [[2, 1]]}),
    ("polynomial", {"degree": 2,
                    "coeffs": [[[1, 0, -1, 1, 0.5, 1], [0, 1, 0, 1, -1, 1]], []]}),
    ("base_space", dict(default_base_space(1).to_json(), outer={
        "c": [[0, 1], [0, 1]], "r": [10.6, 1]})),
], ids=["float_images", "bool_image", "float_degree", "float_numerator",
        "float_radius"])
def test_non_integer_json_value_is_input_error(target, doc, tmp_path, capsys):
    # integers are never truncated: each of these used to run on an altered
    # input and exit 0
    argv = _fuzz_argv(target, doc, tmp_path)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("payload", [5, "polynomial", None])
def test_polynomial_file_that_is_not_an_object_is_input_error(payload, tmp_path,
                                                              capsys):
    path = write_json(tmp_path / "poly.json", payload)
    space = write_json(tmp_path / "space.json", default_base_space(1).to_json())
    assert main(["monodromy", path, "--base-space", space]) == 4
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


def test_repeated_monomial_is_input_error(tmp_path, capsys):
    # z^2 - u + u - iv: the second -u term used to replace the first, so the
    # run tracked z^2 + u - iv and exited 0
    poly = {"degree": 2, "coeffs": [[[1, 0, -1, 1, 0, 1], [1, 0, 1, 1, 0, 1],
                                     [0, 1, 0, 1, -1, 1]], []]}
    path = write_json(tmp_path / "poly.json", poly)
    space = write_json(tmp_path / "space.json", default_base_space(1).to_json())
    out = tmp_path / "out.json"
    assert main(["monodromy", path, "--base-space", space, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert "repeated monomial u^1 v^0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("a0", [
    [[0, 0, -1, 1, 0, 1], [0, 400, -1, 1, 0, 1]],
    [[0, 0, -1, 1, 0, 1], [0, 300, -1, 1, 0, 1]],
    [[0, 0, -1, 1, 0, 1], [1000, 0, -1, 1, 0, 1]],
    [[0, 0, -10 ** 400, 1, 0, 1], [1, 0, 1, 1, 0, 1]],
], ids=["v400_at_basepoint", "v300_on_seed_circle", "u1000_on_a_segment",
        "huge_coefficient"])
def test_float_overflow_is_numerical_error(a0, tmp_path, capsys):
    # z^2 + a0 on the one-hole space: -1 - v^400 overflows at the basepoint
    # (0, -8), -1 - v^300 does not but its root solver's seeds do, and
    # -1 - u^1000 is -1 at the basepoint and overflows along a loop segment;
    # each used to raise, or to warn in numpy, which pytest turns into an
    # error
    path = write_json(tmp_path / "poly.json", {"degree": 2, "coeffs": [a0, []]})
    space = write_json(tmp_path / "space.json", default_base_space(1).to_json())
    out = tmp_path / "out.json"
    assert main(["monodromy", path, "--base-space", space, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "overflow" in err and "a float" in err and "Traceback" not in err
    assert not out.exists()


VANISHING_DISCRIMINANT = {
    "z^2": [[], []],
    "(z-w)^2": [[[2, 0, 1, 1, 0, 1], [0, 2, -1, 1, 0, 1], [1, 1, 0, 1, 2, 1]],
                [[1, 0, -2, 1, 0, 1], [0, 1, 0, 1, -2, 1]]],
    # its coefficients overflow a float on a loop segment, not at the
    # basepoint
    "(z-w^135)^2": [(QiPoly.monomial(135) ** 2).to_bivariate().to_json(),
                    QiPoly.monomial(135).scale(-2).to_bivariate().to_json()],
}


@pytest.mark.parametrize("command, coeffs", [
    (command, coeffs) for command in ("monodromy", "embed", "verify-tower")
    for coeffs in VANISHING_DISCRIMINANT.values()
], ids=[name if command == "monodromy" else f"{command}-{name}"
        for command in ("monodromy", "embed", "verify-tower")
        for name in VANISHING_DISCRIMINANT])
def test_identically_vanishing_discriminant_is_verification_failure(
        command, coeffs, tmp_path, capsys):
    # every fiber has a double root, so the input is not Weierstrass: every
    # command that tracks it exits 2 with the certificate's reason, not 3
    # with a root gap
    path = write_json(tmp_path / "poly.json", {"degree": 2, "coeffs": coeffs})
    space = write_json(tmp_path / "space.json", default_base_space(1).to_json())
    group = write_json(tmp_path / "z4.json", {"degree": 4, "generators": [[2, 3, 4, 1]]})
    phi = write_json(tmp_path / "phi.json", {"gen_images": [[2, 1]]})
    psi = write_json(tmp_path / "psi.json", {"gen_images": [[2, 3, 4, 1]]})
    out = tmp_path / "out.json"
    argv = {"monodromy": [path],
            "embed": [path, "--group", group, "--phi", phi],
            "verify-tower": [path, path, "--group", group, "--phi", phi,
                             "--psi", psi]}[command]
    assert main([command, *argv, "--base-space", space, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the discriminant vanishes identically" in err and "Traceback" not in err
    assert not out.exists()


# -- seeded fuzzing of every JSON input: types and structure, not magnitudes --

FUZZ_INPUTS = {
    "group": {"degree": 2, "generators": [[2, 1]]},
    # z^2 - w, branched only at the center of the single hole
    "polynomial": {"degree": 2,
                   "coeffs": [[[1, 0, -1, 1, 0, 1], [0, 1, 0, 1, -1, 1]], []]},
    "base_space": default_base_space(1).to_json(),
}


def _json_paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _swap_type(value, rng):
    options = [None, True, str(value) if not isinstance(value, str) else 1]
    if isinstance(value, int) and not isinstance(value, bool):
        options.append(float(value))
    if isinstance(value, list):
        options.append({str(i): v for i, v in enumerate(value)})
    if isinstance(value, dict):
        options.append(list(value.values()))
    return rng.choice(options)


def _mutate(doc, rng):
    """One mutation at a random node: swap its JSON type, drop it from its
    parent, or wrap it in a list. Returns the document, the operation and
    the node as it was."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_json_paths(doc)))
    ops = ["swap", "wrap"] + (["drop"] if path else [])
    op = rng.choice(ops)
    if not path:
        return (_swap_type(doc, rng) if op == "swap" else [doc]), op, doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if op == "drop":
        del parent[path[-1]]
    elif op == "swap":
        parent[path[-1]] = _swap_type(parent[path[-1]], rng)
    else:
        parent[path[-1]] = [parent[path[-1]]]
    return doc, op, node


def _fuzz_argv(target, doc, tmp_path):
    """Write the inputs with ``target`` replaced by ``doc``; the command that
    reads them."""
    paths = {name: write_json(tmp_path / f"{name}.json",
                              doc if name == target else default)
             for name, default in FUZZ_INPUTS.items()}
    if target == "group":
        argv = ["realize", paths["group"]]
    else:
        argv = ["monodromy", paths["polynomial"],
                "--base-space", paths["base_space"]]
    return argv + ["-o", str(tmp_path / "out.json")]


def test_cli_fuzz_mutated_inputs_exit_cleanly(tmp_path, capsys):
    for target in sorted(FUZZ_INPUTS):
        rng = random.Random(f"cli-fuzz-{target}")
        for _ in range(24):
            doc, op, node = _mutate(FUZZ_INPUTS[target], rng)
            argv = _fuzz_argv(target, doc, tmp_path)
            try:
                code = main(argv)
            except Exception as exc:  # a traceback at the command line
                pytest.fail(f"{argv[0]} with {target} {doc!r} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (target, doc, code, err)
            assert "Traceback" not in err
            # a swapped integer leaf of any input is never truncated or read
            # as a bool
            if op == "swap" and type(node) is int:
                assert code == 4, (target, doc, code, err)


# -- seeded fuzzing of the discrete inputs of embed and verify-tower --

def _discrete_fuzz_inputs(instance):
    """H, phi onto the deck group of F and psi onto the deck group of the
    solver's covering, as embed and verify-tower read them: Z4 over the Z2
    covering, or a trivial H on two points over the rank-0 covering."""
    from splitcover import embedding
    from splitcover.freecover import cayley_table, deck_group
    from splitcover.permgroup import GroupHom

    if instance == "z4_over_z2":
        rank, H = 1, closure((perm((1, 2, 3, 4), n=4),))
        f_table = cayley_table((perm((1, 2), n=2),))[0]
        phi_images = (perm((1, 2), n=2),)
    else:
        rank, H = 0, closure((), degree=2)
        f_table = cayley_table(())[0]
        phi_images = ()
    phi = GroupHom.from_generator_images(H, deck_group(f_table).group, phi_images)
    solution = embedding.solve(embedding.EmbeddingInstance(rank, f_table, H, phi))
    docs = {"H": H.to_json(),
            "phi": {"gen_images": phi.to_json()["gen_images"]},
            "psi": {"gen_images": solution.psi.to_json()["gen_images"]}}
    return docs, rank, f_table, deck_group(solution.E_cover).group


@pytest.mark.parametrize("instance, expected", [
    ("z4_over_z2", {"parse", "refused"}),
    # these documents hold one integer and empty lists, so every mutation
    # breaks their schema and the loaders refuse it
    ("trivial_over_rank_0", {"parse"}),
])
def test_discrete_fuzz_mutated_inputs_fail_cleanly(instance, expected, tmp_path):
    # main maps ValueError to exit 4 and the solver's two errors to exit 2;
    # a KeyError or IndexError would reach the command line as a traceback
    from splitcover import cli, embedding
    from splitcover.freecover import deck_group
    from splitcover.permgroup import GroupHom

    docs, rank, f_table, e_deck = _discrete_fuzz_inputs(instance)

    def attempt(inputs):
        paths = {name: write_json(tmp_path / f"{name}.json", doc)
                 for name, doc in inputs.items()}
        try:
            H = cli._load_group(paths["H"])
            phi_images = cli._load_images(paths["phi"], "phi")
            psi_images = cli._load_images(paths["psi"], "psi")
        except cli.InputError:
            return "parse"
        try:
            phi = GroupHom.from_generator_images(
                H, deck_group(f_table).group, phi_images)
            GroupHom.from_generator_images(H, e_deck, psi_images)
            embedding.solve(embedding.EmbeddingInstance(rank, f_table, H, phi))
        except (ValueError, embedding.NoSolutionError,
                embedding.SolutionCheckError):
            return "refused"
        return "solved"

    assert attempt(docs) == "solved"
    outcomes = set()
    for target in sorted(docs):
        rng = random.Random(f"discrete-fuzz-{target}")
        for _ in range(40):
            doc, _, _ = _mutate(docs[target], rng)
            try:
                outcomes.add(attempt(dict(docs, **{target: doc})))
            except Exception as exc:
                pytest.fail(f"{target} {doc!r} raised {exc!r}")
    assert outcomes == expected


def test_embed_trivial_group_on_two_points_over_the_realized_trivial_group(tmp_path):
    # the empty preimage assignment generates H, whose identity moves none
    # of H's two points; the covering built from it must be labeled by it
    g = write_json(tmp_path / "g.json", {"degree": 1, "generators": []})
    realized = tmp_path / "realized.json"
    assert main(["realize", g, "-o", str(realized)]) == 0
    h = write_json(tmp_path / "h.json", {"degree": 2, "generators": []})
    phi = write_json(tmp_path / "phi.json", {"gen_images": []})
    out = tmp_path / "embedded.json"
    assert main(["embed", str(realized), "--group", h, "--phi", phi,
                 "-o", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["verdicts"] and all(report["verdicts"].values())


def test_an_object_in_place_of_a_list_is_input_error(tmp_path):
    # iterating a JSON object reads its keys, so {} would pass as no elements
    from splitcover import cli

    group = write_json(tmp_path / "h.json", {"degree": 2, "generators": {}})
    images = write_json(tmp_path / "phi.json", {"gen_images": {}})
    with pytest.raises(cli.InputError, match="list"):
        cli._load_group(group)
    with pytest.raises(cli.InputError, match="list"):
        cli._load_images(images, "phi")
