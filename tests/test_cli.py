import json
import random
from fractions import Fraction

import pytest

from splitcover.cli import build_parser, main
from splitcover.permgroup import Permutation, closure
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


@pytest.mark.parametrize("step, space, w0", [
    (4, default_base_space(1), 0),
    (2, BaseSpace(Disc((0, 0), 10), (Disc((0, 8), Fraction(1, 10)),), (0, -8)), 8j),
], ids=["step_4", "step_2_small_hole"])
def test_initial_step_beyond_the_loop_is_input_error(step, space, w0, tmp_path,
                                                     capsys):
    # z^2 - (w - w0) with w0 in the hole has monodromy [[2, 1]]; a step
    # longer than the loop let every refinement pass jump it at once and
    # report the identity with exit 0
    a0 = BivariatePolyQi.from_w_powers([qi(w0.real, w0.imag), qi(-1)])
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.zero()])
    poly = write_json(tmp_path / "poly.json", {"polynomial": f.to_json(),
                                               "base_space": space.to_json()})
    cfg = write_json(tmp_path / "cfg.json", {"tracking": {"initial_step": step}})
    assert main(["monodromy", poly, "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert "initial_step" in captured.err and captured.out == ""


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


def test_config_file_controls_tracking(z2_artifact, tmp_path, capsys):
    _, group, _, _ = z2_artifact
    cfg = write_json(tmp_path / "cfg.json", {"tracking": {"initial_step": 0.005}})
    code = main(["realize", group, "--config", str(cfg), "--seed", "7"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["inputs"]["seed"] == 7
    assert set(payload["report"]["inputs"]) == {"group", "base_space", "seed"}


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


@pytest.mark.parametrize("config", [
    {"max_degree": 3, "denominator_bound": 7, "grid_density": 21,
     "conservatism": 0.5},
    {"grid_densty": 21},
], ids=["removed_keys", "misspelt_key"])
def test_unknown_config_key_is_input_error(config, z2_artifact, tmp_path, capsys):
    _, group, _, _ = z2_artifact
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out.json"
    assert main(["realize", group, "--config", cfg, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert "input error" in err and "unknown config key(s)" in err
    for key in config:
        assert key in err
    assert "Traceback" not in err
    assert not out.exists()


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


# the removed keys conservatism and grid_density stay input errors whatever
# their value
@pytest.mark.parametrize("config", [
    {"conservatism": [1]},
    {"conservatism": None},
    {"conservatism": True},
    {"conservatism": "0.5"},
    {"grid_density": [41]},
    {"grid_density": {"n": 41}},
    {"grid_density": 7.9},
    {"grid_density": "9"},
    {"grid_density": None},
    {"tracking": {"initial_step": True}},
    {"tracking": {"max_newton_iters": True}},
    {"tracking": {"initial_step": float("nan")}},
], ids=["conservatism_list", "conservatism_null", "conservatism_bool",
        "conservatism_string", "grid_list", "grid_object", "grid_float",
        "grid_string", "grid_null", "initial_step_bool",
        "max_newton_iters_bool", "initial_step_nan"])
def test_non_numeric_config_value_is_input_error(config, z2_artifact, tmp_path,
                                                 capsys):
    _, group, _, _ = z2_artifact
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out.json"
    assert main(["realize", group, "--config", cfg, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    assert not out.exists()


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


# -- seeded fuzzing of every JSON input: types and structure, not magnitudes --

FUZZ_INPUTS = {
    "group": {"degree": 2, "generators": [[2, 1]]},
    # z^2 - w, branched only at the center of the single hole
    "polynomial": {"degree": 2,
                   "coeffs": [[[1, 0, -1, 1, 0, 1], [0, 1, 0, 1, -1, 1]], []]},
    "base_space": default_base_space(1).to_json(),
    "config": {"tracking": {"initial_step": 0.02, "min_step": 1e-08,
                            "safety_factor": 0.4, "max_newton_iters": 30}},
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
    if target in ("group", "config"):
        argv = ["realize", paths["group"], "--config", paths["config"]]
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
            # a config value of the wrong type is never coerced; a dropped
            # key falls back to its default
            if target == "config" and op != "drop":
                assert code == 4, (doc, op, code, err)
            # nor is an integer: a swapped integer leaf of any input is
            # never truncated or read as a bool
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
