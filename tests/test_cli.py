import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import craig
from craig.cli import main
from craig.formulas import MAX_DEPTH, Atom, Or, format_clause_set
from craig.sequent import ax, format_proof, infer, weaken
from conftest import iter_nodes
from test_sequent import MALFORMED_COMPACT, UNSOUND_PROOFS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_parse(self, capsys):
        code, out, _ = run(capsys, "parse", "p & q -> p | q")
        assert code == 0
        assert out.strip() == "~(p & q) | (p | q)"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "parse", "p &")
        assert code == 2

    def test_prove_success(self, capsys):
        code, out, _ = run(capsys, "prove", "--system", "lk-minus", "p ; => ; p")
        assert code == 0
        assert out.startswith("(ax")

    def test_prove_failure_with_countermodel(self, capsys):
        code, out, _ = run(capsys, "prove", "--system", "lk-minus", "; => ; p")
        assert code == 1
        assert "countermodel" in out and "p=0" in out

    def test_prove_modal(self, capsys):
        code, out, _ = run(capsys, "prove", "--system", "k", "[]p ; => ; []p")
        assert code == 0

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "p & q", "p | q")
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_enumerate_invalid(self, capsys):
        code, out, _ = run(capsys, "enumerate", "p", "q")
        assert code == 1

    def test_prune(self, capsys):
        code, out, _ = run(capsys, "prune", "p;r ~p")
        assert code == 0
        assert out == "r\n"

    def test_prune_past_its_bound_exits_1(self, capsys, tmp_path):
        from conftest import random_3cnf

        path = tmp_path / "a.cls"
        path.write_text(format_clause_set(frozenset(random_3cnf(random.Random(301))[:45])))
        code, out, err = run(capsys, "prune", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: eliminating x10 would build ")

    def test_refute(self, capsys):
        code, out, _ = run(capsys, "refute", "p;~p")
        assert code == 0
        assert "RES" in out

    def test_refute_satisfiable(self, capsys):
        code, out, _ = run(capsys, "refute", "p")
        assert code == 1
        assert "satisfiable" in out

    def test_res_interpolate(self, capsys):
        code, out, _ = run(capsys, "res-interpolate", "p", "~p")
        assert code == 0
        assert out.strip().endswith("(p | false) & (~p | true)")

    def test_res_interpolate_stored_refutation(self, capsys, tmp_path):
        code, out, _ = run(capsys, "res-interpolate", "p", "~p")
        res = tmp_path / "proof.res"
        res.write_text("".join(line + "\n" for line in out.strip().split("\n")[:-1]))
        code, again, _ = run(
            capsys, "res-interpolate", "p", "~p", "--refutation", str(res)
        )
        assert code == 0
        assert again == out


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [("refute", "false ~s; q; s ~q"), ("res-interpolate", "q; s ~q", "false ~s")],
    )
    def test_non_atomic_literal_is_a_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "literal false" in err

    @pytest.mark.parametrize("text", ["[]p ; => ; []p", "; => []p ;"])
    def test_boxed_formula_under_a_propositional_system_is_a_logical_failure(self, capsys, text):
        code, out, err = run(capsys, "prove", "--system", "lk", text)
        assert code == 1
        assert out == ""
        assert "boxed formula in a non-modal system lk" in err and "Traceback" not in err

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "refute", str(tmp_path / "missing.cls"))
        assert code == 2
        assert "cannot read" in err and "missing.cls" in err

    def test_malformed_refutation_file_is_a_logical_failure(self, capsys, tmp_path):
        res = tmp_path / "bad.res"
        res.write_text("0: INPUT A {p}\nx: RES 0 0 p\n")
        code, _, err = run(capsys, "res-interpolate", "p", "~p", "--refutation", str(res))
        assert code == 1
        assert "bad refutation line" in err

    @pytest.mark.parametrize(
        "lines, node",
        [(["INPUT B {p}", "INPUT A {~p}"], 0), (["INPUT A {p}", "INPUT A {~p}"], 1)],
        ids=["swapped-sides", "all-a"],
    )
    def test_refutation_input_from_the_wrong_side_is_a_logical_failure(
        self, capsys, tmp_path, lines, node
    ):
        res = tmp_path / "sides.res"
        res.write_text(f"0: {lines[0]}\n1: {lines[1]}\n2: RES 0 1 p\n")
        code, out, err = run(capsys, "res-interpolate", "p", "~p", "--refutation", str(res))
        assert code == 1
        assert out == ""
        assert f"node {node}: INPUT" in err and "is not a clause of" in err

    @pytest.mark.parametrize("command", ["check-proof", "cut-eliminate"])
    @pytest.mark.parametrize(
        "text",
        [
            '(ax "p ; => ; p"',
            '(lw "p, q ; => p ; " x (ax "p ; => p ; " -))',
            '(ax "p ; => ; p -)',
            "(ax p ; => ; p -)",
            "",
        ] + [param.values[0] for param in MALFORMED_COMPACT],
        ids=["truncated", "non-numeric-main", "unterminated-quote", "bare-sequent", "empty"]
        + [param.id for param in MALFORMED_COMPACT],
    )
    def test_malformed_proof_file_is_a_logical_failure(self, capsys, tmp_path, command, text):
        prf = tmp_path / "bad.prf"
        prf.write_text(text)
        code, _, err = run(capsys, command, str(prf))
        assert code == 1
        assert "Traceback" not in err

    @staticmethod
    def doubling_proof(n):
        """n lor steps over n copies of p | p, each naming its two equal
        premises once: a text of O(n) bytes, a tree of over 2^n nodes."""
        p = Atom("p")
        node = ax(p)
        for _ in range(n - 1):
            node = weaken(node, p, "g1")
        for _ in range(n):
            node = infer("lor", (node, node), Or(p, p), "g1")
        return node

    def test_a_text_far_smaller_than_its_tree_is_refused(self, capsys, tmp_path):
        small, large = tmp_path / "small.prf", tmp_path / "large.prf"
        small.write_text(format_proof(self.doubling_proof(8)))  # 2,303 tree nodes, 16 distinct, 211 bytes
        large.write_text(format_proof(self.doubling_proof(40)))  # 4.5e13 nodes, 1,072 bytes
        code, out, _ = run(capsys, "interpolate", "--system", "lk-minus", str(small))
        assert code == 0 and out.count("\n") == 25
        for argv in (["check-proof", "--system", "lk-minus"], ["interpolate", "--system", "lk-minus"],
                     ["cut-eliminate", "--format", "text"]):
            code, out, err = run(capsys, *argv, str(large))
            assert (code, out) == (1, "")
            assert "nodes per byte of its text" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, system", UNSOUND_PROOFS)
    def test_unsound_rule_instance_is_a_logical_failure(self, capsys, tmp_path, text, system):
        prf = tmp_path / "unsound.prf"
        prf.write_text(text)
        code, out, err = run(capsys, "check-proof", "--system", system.name, str(prf))
        assert code == 1
        assert out.startswith("violation at []: rule ")
        assert err == ""

    def test_failed_refutation_check_is_internal(self, capsys, monkeypatch):
        import craig.resolution

        monkeypatch.setattr(
            craig.resolution,
            "check_refutation",
            lambda rp: craig.resolution.Violation(0, "injected"),
        )
        code, _, err = run(capsys, "refute", "p;~p")
        assert code == 3
        assert "RefutationCheckFailed" in err and "injected" in err

    @pytest.mark.parametrize("argv", [("refute", "p q;~p"), ("res-interpolate", "p q", "~p")])
    def test_failed_assignment_check_is_internal(self, capsys, monkeypatch, argv):
        import craig.resolution
        from craig.formulas import clause

        code, out, _ = run(capsys, *argv)
        assert (code, out) == (1, "satisfiable: p=0, q=1\n")
        monkeypatch.setattr(
            craig.resolution, "falsified_clause", lambda clauses, assignment: clause("~q")
        )
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "AssignmentCheckFailed: search found an assignment that falsifies {~q}" in err

    def test_failed_cut_elimination_check_is_internal(self, capsys, monkeypatch):
        import craig.transform
        from craig.sequent import LKMINUS, Violation, check_proof

        def fake(proof, system):
            return Violation((), "injected") if system is LKMINUS else check_proof(proof, system)

        monkeypatch.setattr(craig.transform, "check_proof", fake)
        code, out, err = run(capsys, "pipeline", "p & q", "p | q", "p;q")
        assert (code, out) == (3, "")
        assert "ProofCheckFailed: cut elimination built an invalid proof at (): injected" in err

    def test_failed_realization_check_is_internal(self, capsys, monkeypatch):
        import craig.construct
        from craig.sequent import Violation, check_proof

        def fake(proof, system):
            # only the conjoined proof has cuts
            if any(node.rule == "cut" for _, node in iter_nodes(proof)):
                return Violation((), "injected")
            return check_proof(proof, system)

        monkeypatch.setattr(craig.construct, "check_proof", fake)
        code, out, err = run(capsys, "realize", "--interpolant", "p & q", "p & q", "p | q")
        assert (code, out) == (3, "")
        assert "ProofCheckFailed: built an invalid proof at (): injected" in err

    def test_unexpected_exception_is_internal(self, capsys, monkeypatch):
        import craig.cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(craig.cli, "cmd_parse", broken)
        code, _, err = run(capsys, "parse", "p")
        assert code == 3
        assert "Traceback" in err and "RuntimeError: boom" in err


class TestProofPipelineCommands:
    def test_prove_check_interpolate_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", "--system", "lk-minus",
                           "p & q ; => ; p | q")
        assert code == 0
        prf = tmp_path / "proof.prf"
        prf.write_text(out)
        code, out, _ = run(capsys, "check-proof", "--system", "lk-minus", str(prf))
        assert code == 0 and out.strip() == "ok"
        code, out, _ = run(capsys, "interpolate", "--system", "lk-minus", str(prf))
        assert code == 0
        assert out.strip().split("\n")[-1] in ("p", "q")

    def test_realize_then_interpolate(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "realize", "--system", "lk-at",
            "--interpolant", "p & q", "p & q", "p | q",
        )
        assert code == 0
        prf = tmp_path / "realized.prf"
        prf.write_text(out)
        code, out, _ = run(capsys, "check-proof", "--system", "lk-at", str(prf))
        assert code == 0
        code, out, _ = run(capsys, "interpolate", "--system", "lk-at", str(prf))
        assert code == 0
        from craig.formulas import And, Atom, equiv, parse_formula

        last = parse_formula(out.strip().split("\n")[-1])
        assert equiv(last, And(Atom("p"), Atom("q")))

    def test_cut_eliminate_with_trace(self, capsys, tmp_path):
        from craig.construct import realize_pruned
        from craig.formulas import And, Atom, Or, clause
        from craig.sequent import format_proof

        p, q = Atom("p"), Atom("q")
        realized = realize_pruned(
            And(p, q), Or(p, q), frozenset([clause("p"), clause("q")])
        )
        prf = tmp_path / "realized.prf"
        prf.write_text(format_proof(realized))
        code, out, _ = run(capsys, "cut-eliminate", "--trace", str(prf))
        assert code == 0
        assert "cnf:" in out

    def test_cut_eliminate_rejects_type_l_cuts(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "realize", "--system", "lk-at",
            "--interpolant", "p & q", "p & q", "p | q",
        )
        prf = tmp_path / "realized.prf"
        prf.write_text(out)
        code, _, err = run(capsys, "cut-eliminate", str(prf))
        assert code == 1
        assert "type R" in err

    def test_pipeline(self, capsys):
        code, out, _ = run(capsys, "pipeline", "p & q", "p | q", "p;q")
        assert code == 0
        assert "subsumed: True" in out


class TestRepros:
    @pytest.mark.parametrize(
        "name", ["prop3.2", "prop3.3", "thm6.1", "prop7.1", "thm7.2", "thm5.4"]
    )
    def test_scenarios_pass(self, capsys, name):
        code, out, _ = run(capsys, "repro", name)
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "name", ["prop3.2", "prop3.3", "thm6.1", "prop7.1", "thm7.2", "thm5.4"]
    )
    def test_deterministic_output(self, capsys, name):
        _, first, _ = run(capsys, "repro", name)
        _, second, _ = run(capsys, "repro", name)
        assert first == second


def run_python(*argv):
    """python in a child process that imports the same craig, installed or
    not."""
    source_root = str(Path(craig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def run_module(*argv):
    return run_python("-m", "craig.cli", *argv)


class TestConsoleEntry:
    def test_import_leaves_the_recursion_limit_alone(self):
        out = run_python("-c", "import sys; before = sys.getrecursionlimit(); "
                               "import craig, craig.cli; print(before, sys.getrecursionlimit())")
        before, after = out.stdout.split()
        assert out.returncode == 0 and before == after

    def test_module_invocation(self):
        out = run_module("parse", "true")
        assert out.returncode == 0
        assert out.stdout.strip() == "true"

    def test_too_deep_formula_is_a_usage_error(self):
        # a crash in the child would show as a negative return code
        out = run_module("parse", "~" * 20_000 + "p")
        assert out.returncode == 2
        assert "nested deeper than" in out.stderr

    def test_flat_chain_counts_as_nesting(self, capsys):
        # n operands of & build a left-leaning tree n - 1 deep
        code, out, _ = run(capsys, "parse", " & ".join(["p"] * (MAX_DEPTH + 1)))
        assert code == 0
        assert out.count("&") == MAX_DEPTH
        code, _, err = run(capsys, "parse", " & ".join(["p"] * (MAX_DEPTH + 2)))
        assert code == 2
        assert f"nested deeper than {MAX_DEPTH}" in err
