import os
import subprocess
import sys
from pathlib import Path

import pytest

import craig
from craig.cli import main


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


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the same craig, installed or not
        source_root = str(Path(craig.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "craig.cli", "parse", "true"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "true"
