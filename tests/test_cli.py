"""End-to-end checks of the command-line front end.

Everything goes through ``main(argv)`` in-process so exit codes and
output are captured exactly; a couple of checks re-run the same command
to pin down byte-level determinism of the emitted files.
"""

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dialectic.cli
import dialectic.legacy
import dialectic.strings
from dialectic.cli import MAX_HORIZON, _jobs, main
from dialectic.engine import (
    GapSkipError, MissingReplacementError, estimate_beliefs, run,
)
from dialectic.legacy import StateInvariantError
from dialectic.opponents import MAX_AXIOM
from dialectic.strings import MAX_STORED
from dialectic.systemspec import load_system
from dialectic.universe import MAX_SEXPR_DEPTH

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

GOOD_SPEC = """\
variant q
axioms 6
at 8 : a0 a1 a2 a3 |- CE
at 42 : a0 a1 a2 a4 a5 |- BOT
replace a3 -> a5
"""

# one BOT rule and one CE rule enabled simultaneously at the same least
# position: the only shape where a stack engine that broke the tie the other
# way would disagree with the string side's marker precedence
TIE_SPEC = """\
variant q
axioms 6
at 4 : a0 a1 a2 a3 |- BOT
at 4 : a0 a1 a2 a3 |- CE
replace a3 -> a5
"""

# a rule that concludes an axiom: the stack side reads it as a plain pair
AXIOM_SPEC = """\
variant q
at 3 : a0 |- a4
at 8 : a0 a1 a2 a3 |- CE
at 20 : a1 a4 |- BOT
replace a3 -> a5
"""

BAD_P_SPEC = """\
variant p
axioms 4
at 3 : a0 a1 |- BOT
"""

# axiom conclusions without their composition a0 ⊢ a2: the iteration law fails
CHAIN_SPEC = """\
variant d
axioms 3
at 1 : a0 |- a1
at 2 : a1 |- a2
at 3 : a1 a2 |- BOT
"""

ADD_OK = """\
item k4
rule k4 -> k0
"""

ADD_SELF_REFUTING = """\
item k9
conflict k9
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "good.spec"
    path.write_text(GOOD_SPEC, encoding="utf-8")
    return str(path)


@pytest.fixture
def sample_kb():
    return str(resources.files("dialectic") / "data" / "sample.kb")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_and_reports_laws(capsys, spec_file):
    code, out, err = run_cli(capsys, "validate", spec_file)
    assert code == 0
    assert out == ("validation passed (bound=8, width=4, sets=256)\n"
                   "iteration law certified structurally "
                   "(no axiom-producing rules)\n")


def test_validate_output_golden(capsys, spec_file, tmp_path):
    code, out, err = run_cli(capsys, "validate", spec_file, "--bound", "16")
    assert (code, err) == (0, "")
    assert out == ("validation passed (bound=16, width=4, sets=3214)\n"
                   "iteration law certified structurally "
                   "(no axiom-producing rules)\n")
    path = tmp_path / "chain.spec"
    path.write_text(CHAIN_SPEC, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path), "--bound", "4")
    assert (code, err) == (1, "")
    failing = ["[0]", "[1]", "[0, 1]", "[0, 2]", "[0, 3]", "[0, 4]", "[1, 3]",
               "[1, 4]", "[0, 1, 3]", "[0, 1, 4]", "[0, 2, 3]", "[0, 2, 4]",
               "[0, 3, 4]", "[1, 3, 4]", "[0, 1, 3, 4]", "[0, 2, 3, 4]"]
    assert out == "".join(
        ["validation FAILED (bound=4, width=4, sets=31)\n"]
        + ["iteration fails for F=%s: closure of closure differs\n" % f
           for f in failing])


def test_spec_run_bytes_are_pinned(capsys, spec_file, tmp_path):
    # the benchmark's spec-run item: validate at bound 16, then a 10^5-stage
    # run with a 2 MB trace; stdout and the trace file, byte for byte
    code, out, err = run_cli(capsys, "validate", spec_file, "--bound", "16")
    assert (code, err) == (0, "")
    assert out == ("validation passed (bound=16, width=4, sets=3214)\n"
                   "iteration law certified structurally "
                   "(no axiom-producing rules)\n")
    trace = tmp_path / "trace.txt"
    code, out, err = run_cli(capsys, "run", spec_file, "--horizon", "100000",
                             "--window", "100", "--trace", str(trace))
    assert (code, err) == (0, "")
    assert out == ("variant: q\nhorizon: 100000\nwindow: 100\n"
                   "stable prefix: 99962\n"
                   "beliefs (99960): a0 a1 a2 %s ...\n"
                   "loop suspects: none\n"
                   % " ".join("a%d" % i for i in range(5, 22)))
    body = trace.read_bytes()
    assert len(body) == 1_977_549
    assert hashlib.sha256(body).hexdigest() == (
        "ac9db614e0cb86514a2903a01d71f46fd4e77dec70048b9b828e649aa61db7e9")


ONE_RULE_SPEC = """\
variant d
axioms 4
at 3 : a0 a1 |- BOT
"""


def test_million_stage_run_costs_its_events(capsys, tmp_path):
    # the report's bytes at 10^6 stages, and an estimate held as the
    # stored head's runs plus the listing's interval: a0, then a2 ..
    path = tmp_path / "one.spec"
    path.write_text(ONE_RULE_SPEC, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), "--horizon", "1000000")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4caf98cb990ec2848ee7ab3b73c089c9d23f50e10f495939a6a6a08e31d8ac13")
    assert "beliefs (999997): a0 a2 a3 " in out
    system = load_system(str(path)).build()
    rep = estimate_beliefs(run(system, 10**6), 100)
    assert rep.belief_estimate.bounds == (0, 1, 2, 999_998)


@pytest.mark.parametrize("text,bound,message", [
    # 31 sets, but a billion stages each
    ("at 999999999 : a0 |- BOT\n", "4",
     "error: 31 sets at each of 1000000000 stages make 31000000000 "
     "evaluations; the limit is 5000000\n"),
    ("at 0 : a0 |- BOT\n", "100",
     "error: bound 100 would enumerate 4254727 sets; the limit is 200000\n"),
], ids=["stages", "sets"])
def test_validate_refuses_oversized_work(capsys, tmp_path, text, bound,
                                         message):
    path = tmp_path / "big.spec"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path), "--bound", bound)
    assert (code, out, err) == (1, "", message)


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_an_output_error(capsys, monkeypatch, spec_file):
    # `dialectic validate SPEC | true`: the reader is gone before we write
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = main(["validate", spec_file])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_closed_stdout_pipe_in_a_subprocess(spec_file):
    # buffered and unbuffered stdout: the write into a pipe without a reader
    # and the flush at interpreter exit must both stay quiet
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        sys.modules["dialectic.cli"].__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    for flags in ([], ["-u"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "dialectic.cli", "validate",
                 spec_file], stdout=write_end, stderr=subprocess.PIPE,
                text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (
            1, "error: cannot write output: [Errno 32] Broken pipe\n"), flags


@pytest.mark.parametrize("text, message", [
    ("at 0 : |- BOT\n",
     "error: table derives BOT from the empty set (rule at stage 0)\n"),
    ("variant q\nat 0 : |- BOT\n",
     "error: table derives BOT from the empty set (rule at stage 0)\n"),
    ("replace a1 -> a1\n", "error: replacement fixed point at a1\n"),
])
def test_validate_refuses_what_run_refuses(capsys, tmp_path, text, message):
    path = tmp_path / "refused.spec"
    path.write_text(text, encoding="utf-8")
    for command in ("run", "validate"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out, err) == (1, "", message), command


def test_validate_refuses_undisciplined_p_variant(capsys, tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text(BAD_P_SPEC, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "p" in err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_reports_stability(capsys, spec_file):
    code, out, err = run_cli(capsys, "run", spec_file,
                             "--horizon", "200", "--window", "50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "variant: q"
    assert lines[1] == "horizon: 200"
    assert lines[2] == "window: 50"
    assert lines[3] == "stable prefix: 162"
    assert lines[4].startswith("beliefs (160): a0 a1 a2 a5 a6")
    assert lines[5] == "loop suspects: none"


def test_run_writes_step_trace(capsys, spec_file, tmp_path):
    trace = tmp_path / "steps.txt"
    code, out, err = run_cli(capsys, "run", spec_file,
                             "--horizon", "60", "--window", "20",
                             "--trace", str(trace))
    assert code == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "0\texpand"
    assert lines[8] == "8\treplace\tk=4\told=a3\tnew=a5"
    assert lines[-1].startswith("final\ta0 a1 a2 a5 * a5 a6")


def test_trace_files_are_byte_identical(capsys, spec_file, tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    for path in (first, second):
        code, _, _ = run_cli(capsys, "run", spec_file, "--horizon", "80",
                             "--window", "20", "--trace", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


# each command of argv[1] (a JSON list) through main in one process; prints
# the exit code, stdout and stderr of each as JSON
_COMMANDS_SCRIPT = """\
import contextlib, io, json, sys
from dialectic.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def test_outputs_agree_across_hash_seeds_and_optimization(spec_file,
                                                          sample_kb, tmp_path):
    # set order follows PYTHONHASHSEED for strings, and -O strips asserts:
    # neither may show in an exit code, a printed byte or a written file
    adds = tmp_path / "adds.kb"
    adds.write_text(ADD_OK, encoding="utf-8")
    commands = [
        ["validate", spec_file],
        ["run", spec_file, "--horizon", "2000", "--trace", "run.txt"],
        ["diff", spec_file, "--horizon", "300"],
        ["diff", "--fuzz", "3", "--horizon", "1000"],
        ["diagonalize", "--horizon", "10000", "--window", "100",
         "--report", "diag.txt"],
        ["repair", sample_kb, "--mode", "q", "--trace", "repair.txt"],
        ["revise", sample_kb, str(adds), "--trace", "revise.txt"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(sys.modules["dialectic.cli"].__file__)))
    procs = []
    try:
        for name, seed, flags in (("a", "1", []), ("b", "987", ["-O"])):
            (tmp_path / name).mkdir()
            procs.append(subprocess.Popen(
                [sys.executable, *flags, "-c", _COMMANDS_SCRIPT,
                 json.dumps(commands)], cwd=tmp_path / name,
                env=dict(env, PYTHONHASHSEED=seed),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        runs = []
        for name, proc in zip("ab", procs):
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (0, b"")
            runs.append((json.loads(out), {
                p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}))
    finally:
        for proc in procs:
            proc.kill()   # a no-op once it has exited
    assert runs[0] == runs[1]
    results, files = runs[0]
    assert [code for code, _, _ in results] == [0] * len(commands)
    assert sorted(files) == ["diag.txt", "repair.txt", "revise.txt",
                             "run.txt"]


# ---------------------------------------------------------------------------
# bad input paths
# ---------------------------------------------------------------------------

def test_spec_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "mangled.spec"
    path.write_text("variant q\naxioms 4\nat zero : a0 |- BOT\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert err.startswith("parse error:")
    assert "line 3" in err


# README's spec example, copied verbatim; GOOD_SPEC is it without comments
README_SPEC = """\
variant q          # d, p, or q
axioms 6           # listing size hint
at 8 : a0 a1 a2 a3 |- CE      # staged rule; conclusion BOT or CE
at 42 : a0 a1 a2 a4 a5 |- BOT
replace a3 -> a5   # replacement map entry
"""


def test_readme_spec_runs_like_its_comment_free_copy(capsys, tmp_path,
                                                     spec_file):
    path = tmp_path / "readme.spec"
    path.write_text(README_SPEC, encoding="utf-8")
    bare = run_cli(capsys, "run", spec_file, "--horizon", "300")
    assert bare[0] == 0
    assert run_cli(capsys, "run", str(path), "--horizon", "300") == bare


LONG = "9" * 5000   # more digits than int() converts
BAD_NUMERALS = ["-1", "+1", "1_0", "٣", "²", "１", LONG]


@pytest.mark.parametrize("text", [
    "replace a\u00b2 -> a1\n",
    "axioms \u00b2\n",
    "axioms %s\n" % LONG,
    "replace a%s -> a1\n" % LONG,
    "at %s : a0 |- BOT\n" % LONG,
    "replace a\u0663 -> a1\n",
], ids=["replace-sup2", "axioms-sup2", "axioms-long", "replace-long",
        "stage-long", "replace-arabic3"])
def test_unreadable_numbers_are_parse_errors(capsys, tmp_path, text):
    path = tmp_path / "numbers.spec"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 1: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_input_is_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "accent.spec"
    path.write_text("# r\u00e8gle\n" + GOOD_SPEC, encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0", PYTHONPATH=os.path.dirname(
                   os.path.dirname(sys.modules["dialectic.cli"].__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "dialectic.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("validation passed")


@pytest.mark.parametrize("text,code,line", [
    ("item k0\nitem k\u00f6\nconflict k0 k\u00f6\n", 0,
     "removed: k\u00f6\n"),
    ("item k0\nrule k\u00f6 -> k0\n", 2,
     "parse error: line 2: unknown item 'k\u00f6'\n"),
], ids=["stdout", "stderr"])
def test_output_is_utf8_whatever_the_locale(tmp_path, text, code, line):
    path = tmp_path / "accent.kb"
    path.write_text(text, encoding="utf-8")
    runs = []
    for locale in ({"LC_ALL": "C", "PYTHONUTF8": "0",
                    "PYTHONCOERCECLOCALE": "0"},
                   {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            sys.modules["dialectic.cli"].__file__)), **locale)
        proc = subprocess.run(
            [sys.executable, "-m", "dialectic.cli", "repair", str(path)],
            capture_output=True, env=env, timeout=60)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    assert line.encode() in runs[0][1] + runs[0][2]


def test_deeply_nested_family_script_is_a_parse_error(tmp_path):
    # without the cap, 988 levels parse but overflow the evaluator's stack
    # once the opponent's fuel reaches the script's size
    depth = 988
    g = "(+ 1 " * depth + "n" + ")" * depth
    path = tmp_path / "deep.family"
    path.write_text("prog g = %s\nprog h = x\nprog r = (+ n 1)\n"
                    "opponent o : g=g h=h r=r\n" % g, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(sys.modules["dialectic.cli"].__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "dialectic.cli", "diagonalize", str(path),
         "--horizon", "2500"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("parse error: line 1: bad script: forms nested "
                           "deeper than %d\n" % MAX_SEXPR_DEPTH)


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", str(tmp_path / "nope.spec"))
    assert code == 2
    assert err.startswith("cannot read input:")


@pytest.mark.parametrize("command", ["validate", "run", "repair"])
def test_non_utf8_input_exits_2(capsys, tmp_path, command):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"\xff\xfe" + random.Random(3).randbytes(298))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("cannot read input:") and "codec" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["diff", "--fuzz", "-2"], "--fuzz"),
    (["diff", "SPEC", "--horizon", "-1"], "--horizon"),
    (["diff", "--fuzz", "2", "--jobs", "-1"], "--jobs"),
    (["diagonalize", "--horizon", "-1"], "--horizon"),
    (["run", "SPEC", "--horizon", "-5"], "--horizon"),
    (["run", "SPEC", "--window", "-1"], "--window"),
    (["run", "SPEC", "--horizon", "1e3"], "--horizon"),
    (["validate", "SPEC", "--bound", "-4"], "--bound"),
    # a fuel cap below one stalls every opponent at every stage
    (["diagonalize", "--horizon", "300", "--fuel-cap", "-3"], "--fuel-cap"),
    (["diagonalize", "--horizon", "300", "--fuel-cap", "0"], "--fuel-cap"),
])
def test_negative_counts_are_usage_errors(capsys, spec_file, argv, flag):
    argv = [spec_file if a == "SPEC" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    what = ("a positive integer" if flag in ("--fuel-cap", "--fuzz")
            else "a natural number")
    assert "argument %s: expected %s" % (flag, what) in err


@pytest.mark.parametrize("text", BAD_NUMERALS + [" 7", "7 "],
                         ids=lambda t: ascii(t)[:12])
def test_flags_follow_the_files_digits_rule(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["diagonalize", "--horizon", text])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    *usage, line = err.splitlines()
    assert usage[0].startswith("usage: ") and "error" not in "".join(usage)
    # a long value is quoted by its first 40 characters and its length
    got = ("'%s'... (5000 characters)" % ("9" * 40) if text == LONG
           else repr(text))
    assert line == ("dialectic diagonalize: error: argument --horizon: "
                    "expected a natural number at most %d, got %s"
                    % (MAX_HORIZON, got))


HORIZON_COMMANDS = [["run", "SPEC"], ["diff", "SPEC"], ["diagonalize"],
                    ["repair", "KB"], ["revise", "KB", "ADD"]]


@pytest.mark.parametrize("value", ["1000000000000000001", "99999999999999999999"])
@pytest.mark.parametrize("argv", HORIZON_COMMANDS, ids=lambda argv: argv[0])
def test_horizon_above_its_maximum_is_a_usage_error(capsys, spec_file, sample_kb,
                                                    tmp_path, argv, value):
    # a stage count past an index-sized integer crashed run and diff with
    # an OverflowError traceback
    add = tmp_path / "add.txt"
    add.write_text(ADD_OK, encoding="utf-8")
    files = {"SPEC": spec_file, "KB": sample_kb, "ADD": str(add)}
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv] + ["--horizon", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    *usage, line = err.splitlines()
    assert out == "" and usage[0].startswith("usage: ")
    assert line == ("dialectic %s: error: argument --horizon: expected a "
                    "natural number at most 1000000000000000000, got '%s'"
                    % (argv[0], value))


@pytest.mark.parametrize("argv", HORIZON_COMMANDS, ids=lambda argv: argv[0])
def test_horizon_at_its_maximum_runs(capsys, spec_file, sample_kb, tmp_path,
                                     argv):
    add = tmp_path / "add.txt"
    add.write_text(ADD_OK, encoding="utf-8")
    files = {"SPEC": spec_file, "KB": sample_kb, "ADD": str(add)}
    code, out, err = run_cli(capsys, *[files.get(a, a) for a in argv],
                             "--horizon", str(MAX_HORIZON))
    if argv[0] == "diagonalize":   # an opponent's g leaves the axiom range
        assert (code, out) == (1, "") and err.startswith("error: opponent ")
    else:
        assert (code, err) == (0, ""), err


@pytest.mark.parametrize("argv", [
    ["run", "x.spec", "--horizon"], ["run", "x.spec", "--window"],
    ["validate", "x.spec", "--bound"], ["diff", "--fuzz"], ["diff", "--seed"],
    ["diff", "--jobs"], ["diagonalize", "--fuel-cap"],
], ids=lambda argv: argv[-1])
def test_flag_errors_quote_a_bounded_prefix(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + [LONG])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.encode()) <= 400
    assert err.endswith(" '%s'... (5000 characters)\n" % ("9" * 40))


def test_seed_errors_read_as_before(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diff", "--seed", "1.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "dialectic diff: error: argument --seed: invalid int value: '1.5'")


# a script may name a negative literal, so "-1" is readable there
@pytest.mark.parametrize("text", [t for t in BAD_NUMERALS if t != "-1"]
                         + ["-+1", "--1", "-٣"], ids=lambda t: ascii(t)[:12])
def test_script_literals_follow_the_files_digits_rule(capsys, tmp_path, text):
    path = tmp_path / "literal.family"
    path.write_text("prog g = (+ n %s)\nprog h = x\nprog r = (+ n 1)\n"
                    "opponent o : g=g h=h r=r\n" % text, encoding="utf-8")
    code, out, err = run_cli(capsys, "diagonalize", str(path),
                             "--horizon", "5")
    assert (code, out) == (2, "")
    shown = ("'%s'... (5000 characters)" % ("9" * 40) if text == LONG
             else repr(text))
    assert err == ("parse error: line 1: bad script: unknown token %s\n"
                   % shown)


@pytest.mark.parametrize("command, name, text, line", [
    ("run", "x.spec", "replace a%s -> a5\n" % LONG,
     "bad axiom token 'a%s'... (5001 characters)" % ("9" * 39)),
    ("run", "x.spec", "at 3 : x%s |- BOT\n" % LONG,
     "bad premise token 'x%s'... (5001 characters)" % ("9" * 39)),
    ("run", "x.spec", "%s 3\n" % LONG,
     "unknown directive '%s'... (5000 characters)" % ("9" * 40)),
    ("repair", "x.kb", "item a\nrule %s -> a\n" % ("x" * 5000),
     "unknown item '%s'... (5000 characters)" % ("x" * 40)),
    ("repair", "x.kb", "%s a\n" % ("x" * 5000),
     "unknown declaration '%s'... (5000 characters)" % ("x" * 40)),
    ("diagonalize", "x.family", "opponent o : %s\n" % LONG,
     "bad field '%s'... (5000 characters)" % ("9" * 40)),
], ids=["replace", "premise", "directive", "kb-item", "kb-verb", "field"])
def test_file_errors_quote_a_bounded_prefix(capsys, tmp_path, command, name,
                                            text, line):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "") and len(err.encode()) <= 300
    assert err.endswith(": %s\n" % line) and err.count("\n") == 1


@pytest.mark.parametrize("command, name, text, line", [
    ("repair", "x.kb", "item a b\n", "line 1: item takes exactly one name"),
    ("repair", "x.kb", "item a\nrule a b\n", "line 2: rule needs '->'"),
    ("validate", "x.spec", "at 3 a0 |- BOT\n",
     "line 1: rule line needs ': ... |- ...'"),
    ("diagonalize", "x.family", "prog p n\n",
     "line 1: expected 'prog <name> = <script>'"),
    ("diagonalize", "x.family", "opponent a g=p\n",
     "line 1: expected 'opponent <name> : ...'"),
    ("diagonalize", "x.family", "prog p = n\nopponent a : m=2 g=p\n",
     "line 2: m= excludes g=/h=/r="),
    ("diagonalize", "x.family", "prog p = (\n",
     "line 1: bad script: unterminated form"),
    ("diagonalize", "x.family", "prog p = ( )\n",
     "line 1: bad script: operator name expected after '('"),
    ("diagonalize", "x.family", "prog p = )\n",
     "line 1: bad script: unbalanced ')'"),
    ("diagonalize", "x.family",
     "prog p = n\nopponent a : g=p h=p r=p scan=ful\n",
     "line 2: bad field 'scan=ful'"),
], ids=["kb-item-names", "kb-rule-arrow", "spec-rule-colon", "family-prog",
        "family-opponent", "family-m-excludes", "script-unterminated",
        "script-operator", "script-unbalanced", "family-scan"])
def test_file_format_errors_name_their_line(capsys, tmp_path, command, name,
                                            text, line):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, command, str(path)) == (
        2, "", "parse error: %s\n" % line)


def test_negative_seed_is_still_accepted(capsys):
    code, out, err = run_cli(capsys, "diff", "--fuzz", "2", "--seed", "-3",
                             "--horizon", "50")
    assert code == 0 and out == "fuzz: 2 of 2 seeds agree\n"


@pytest.mark.parametrize("text", ["1_0", " 7", "+7", "\u0663", "-", "-\u0663"],
                         ids=ascii)
def test_seed_follows_the_files_digits_rule(capsys, text):
    # int() read each of these; --seed takes ASCII digits and one leading -
    with pytest.raises(SystemExit) as exc:
        main(["diff", "--fuzz", "1", "--seed", text])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == (
        "dialectic diff: error: argument --seed: invalid int value: %r" % text)


# -3 is test_negative_seed_is_still_accepted's
@pytest.mark.parametrize("text", ["0", "-0"])
def test_seed_takes_digits_with_an_optional_minus(capsys, text):
    assert dialectic.cli._integer(text) == 0
    code, out, err = run_cli(capsys, "diff", "--fuzz", "1", "--seed", text,
                             "--horizon", "50")
    assert (code, out, err) == (0, "fuzz: 1 of 1 seeds agree\n", "")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, first_lines", [
    (["run", "SPEC", "--horizon", "50"], ["variant: q", "horizon: 50",
                                          "window: 50"]),
    (["diagonalize", "--horizon", "50"], ["diagonalization report",
                                          "horizon 50 window 50"]),
    (["repair", "KB", "--horizon", "30"], ["mode d", "horizon 30 window 30"]),
    (["run", "SPEC", "--horizon", "0"], ["variant: q", "horizon: 0",
                                         "window: 0"]),
    # at or above the default the window stays 100, as it always was
    (["run", "SPEC", "--horizon", "100"], ["variant: q", "horizon: 100",
                                           "window: 100"]),
])
def test_omitted_window_shrinks_to_a_short_horizon(capsys, spec_file,
                                                   sample_kb, argv,
                                                   first_lines):
    argv = [{"SPEC": spec_file, "KB": sample_kb}.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[:len(first_lines)] == first_lines


@pytest.mark.parametrize("argv", [
    ["run", "SPEC", "--horizon", "50", "--window", "51"],
    # refused before the construction runs
    ["diagonalize", "--horizon", "5000", "--window", "6000"],
    ["repair", "KB", "--horizon", "10", "--window", "20"],
    ["revise", "KB", "KB", "--horizon", "10", "--window", "20"],
])
def test_window_beyond_horizon_is_a_usage_error(capsys, spec_file, sample_kb,
                                                argv):
    argv = [{"SPEC": spec_file, "KB": sample_kb}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --window:" in err and "exceeds --horizon" in err


def test_diff_ignores_the_window(capsys, spec_file):
    code, out, err = run_cli(capsys, "diff", spec_file, "--horizon", "50",
                             "--window", "100")
    assert code == 0
    assert out == ("alignment ok (backward, 51 stages)\n"
                   "alignment ok (forward, 51 stages)\n")


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def test_diff_spec_agrees_both_directions(capsys, spec_file):
    code, out, err = run_cli(capsys, "diff", spec_file, "--horizon", "300")
    assert code == 0
    assert out == ("alignment ok (backward, 301 stages)\n"
                   "alignment ok (forward, 301 stages)\n")


def test_diff_spec_with_a_rule_that_concludes_an_axiom(capsys, tmp_path):
    path = tmp_path / "axiom.spec"
    path.write_text(AXIOM_SPEC, encoding="utf-8")
    assert run_cli(capsys, "diff", str(path), "--horizon", "2000") == (
        0, "alignment ok (backward, 2001 stages)\n"
           "alignment ok (forward, 2001 stages)\n", "")


# one event at position 10^12: storing the string up to it would list a
# trillion tokens, which ended in a MemoryError traceback
HUGE_SPEC = "at 0 : a999999999999 |- BOT\n"


@pytest.mark.parametrize("command", ["run", "diff"])
def test_an_event_past_the_stored_token_limit_is_one_error_line(capsys, tmp_path,
                                                                command):
    path = tmp_path / "huge.spec"
    path.write_text(HUGE_SPEC, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, str(path), "--horizon",
                             str(MAX_HORIZON))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == ("error: cannot store a string of 999999999999 tokens"
                   " (the limit is %d)\n" % MAX_STORED)


@pytest.mark.parametrize("axiom, code", [(20, 0), (21, 1)])
def test_the_stored_token_limit_is_inclusive(capsys, tmp_path, monkeypatch,
                                             axiom, code):
    # the excision at a20 lists a string of 20 tokens, at a21 one too many
    monkeypatch.setattr(dialectic.strings, "MAX_STORED", 20)
    path = tmp_path / "edge.spec"
    path.write_text("at 0 : a%d |- BOT\n" % axiom, encoding="utf-8")
    got, out, err = run_cli(capsys, "run", str(path), "--horizon", "100")
    assert got == code
    assert err == ("" if code == 0 else "error: cannot store a string of 21"
                   " tokens (the limit is 20)\n")


def test_diff_clause_order_mutation_is_caught(capsys, tmp_path, monkeypatch):
    path = tmp_path / "tie.spec"
    path.write_text(TIE_SPEC, encoding="utf-8")
    code, out, err = run_cli(capsys, "diff", str(path), "--horizon", "200")
    assert code == 0

    select = dialectic.legacy._select_clause

    def revise_on_tie(z_c, z_ce):
        if z_c is not None and z_c == z_ce:
            return 3, z_ce
        return select(z_c, z_ce)

    monkeypatch.setattr(dialectic.legacy, "_select_clause", revise_on_tie)
    code, out, err = run_cli(capsys, "diff", str(path), "--horizon", "200")
    assert code == 1
    assert "alignment MISMATCH (backward) at stage 5, position 3" in out
    assert "alignment MISMATCH (forward) at stage 5, position 3" in out


def test_diff_fuzz_agrees(capsys):
    code, out, err = run_cli(capsys, "diff", "--fuzz", "5", "--seed", "0",
                             "--horizon", "300")
    assert code == 0
    assert out == "fuzz: 5 of 5 seeds agree\n"


def test_diff_fuzz_lists_the_first_ten_failing_seeds(capsys, monkeypatch):
    # seeds 0-11 fail and 12-14 agree; one job, so no worker re-imports
    # the real _diff_one
    monkeypatch.setattr(dialectic.cli, "_diff_one", lambda seed, horizon: (
        seed >= 12, "seed %d: fails at horizon %d" % (seed, horizon)))
    code, out, err = run_cli(capsys, "diff", "--fuzz", "15", "--jobs", "1",
                             "--horizon", "50")
    assert (code, err) == (1, "")
    assert out == "".join("seed %d: fails at horizon 50\n" % seed
                          for seed in range(10)) + "fuzz: 3 of 15 seeds agree\n"


def _diff_one_failing_on_seed_3(seed, horizon):
    """A stand-in for cli._diff_one at module level, so that a forked pool
    worker finds it by name."""
    if seed == 3:
        raise MissingReplacementError(1, 2, 3)
    return True, ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_worker_error_reads_as_a_serial_one(capsys, monkeypatch, jobs):
    monkeypatch.setattr(dialectic.cli, "_diff_one", _diff_one_failing_on_seed_3)
    code, out, err = run_cli(capsys, "diff", "--fuzz", "6", "--horizon", "100",
                             "--jobs", jobs)
    assert (code, out, err) == (
        1, "", "error: no replacement for a3 (stage 1, position 2)\n")


@pytest.mark.parametrize("error, line", [
    (GapSkipError(5, 0),
     "gap-skip violated: least prefix ends in a gap (stage 5, position 0)"),
    (StateInvariantError(4, "frontier stack must be nonempty"),
     "frontier stack must be nonempty (stage 4)"),
], ids=["gap-skip", "state-invariant"])
def test_an_invariant_error_is_one_error_line(capsys, monkeypatch, spec_file,
                                               error, line):
    def broken_run(system, horizon):
        raise error
    monkeypatch.setattr(dialectic.cli, "run", broken_run)
    code, out, err = run_cli(capsys, "run", spec_file)
    assert (code, out, err) == (1, "", "error: %s\n" % line)


def test_diff_fuzz_parallel_matches_serial(capsys):
    code_s, out_s, _ = run_cli(capsys, "diff", "--fuzz", "4", "--seed", "7",
                               "--horizon", "200")
    code_p, out_p, _ = run_cli(capsys, "diff", "--fuzz", "4", "--seed", "7",
                               "--horizon", "200", "--jobs", "2")
    assert (code_s, out_s) == (code_p, out_p)


def test_jobs_has_an_upper_limit(capsys):
    assert _jobs("64") == 64
    with pytest.raises(argparse.ArgumentTypeError):
        _jobs("65")
    # argparse refuses the value before any worker could start
    with pytest.raises(SystemExit) as exc:
        main(["diff", "--fuzz", "2", "--jobs", "65"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --jobs: expected a natural number at most 64" in err


class _InlinePool:
    """Runs submitted calls at once, in this process; records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        result = fn(*args)
        return type("Done", (), {"result": lambda self: result})()


def test_fuzz_pool_is_no_larger_than_the_fuzz_count(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)
    _InlinePool.sizes.clear()
    code, out, err = run_cli(capsys, "diff", "--fuzz", "3", "--jobs", "64",
                             "--horizon", "50")
    assert code == 0 and out == "fuzz: 3 of 3 seeds agree\n"
    assert _InlinePool.sizes == [3]


def test_diff_clause_order_flag_is_gone(capsys, spec_file):
    with pytest.raises(SystemExit) as exc:
        main(["diff", spec_file, "--clause-order", "1,3,2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("\ndialectic: error: unrecognized arguments:"
                        " --clause-order 1,3,2\n")


def test_diff_without_input_exits_2(capsys):
    code, out, err = run_cli(capsys, "diff")
    assert code == 2
    assert "spec file or --fuzz" in err


def test_diff_with_spec_and_fuzz_exits_2(capsys, spec_file):
    code, out, err = run_cli(capsys, "diff", spec_file, "--fuzz", "2")
    assert (code, out) == (2, "")
    assert err == "diff takes a spec file or --fuzz, not both\n"


@pytest.mark.parametrize("argv", [
    ["diff", "--fuzz", "0"],
    ["diff", "SPEC", "--fuzz", "0"],
    ["diff", "--fuzz", "0", "--jobs", "2"],
])
def test_fuzz_zero_is_a_usage_error(capsys, monkeypatch, spec_file, argv):
    # refused while parsing, with or without a spec, before a pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)
    _InlinePool.sizes.clear()
    with pytest.raises(SystemExit) as exc:
        main([spec_file if a == "SPEC" else a for a in argv])
    assert exc.value.code == 2 and _InlinePool.sizes == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == ("dialectic diff: error: argument --fuzz: "
                                    "expected a positive integer, got '0'")


@pytest.mark.parametrize("argv, flag", [
    (["run", "SPEC", "--horizon", "50"], "--trace"),
    (["repair", "KB", "--mode", "q", "--horizon", "50"], "--trace"),
    (["revise", "KB", "ADDS", "--horizon", "50"], "--trace"),
    (["diagonalize", "--horizon", "50"], "--report"),
])
def test_unwritable_output_file_is_an_output_error(capsys, tmp_path, spec_file,
                                                   sample_kb, argv, flag):
    adds = tmp_path / "adds.kb"
    adds.write_text(ADD_OK, encoding="utf-8")
    argv = [{"SPEC": spec_file, "KB": sample_kb, "ADDS": str(adds)}.get(a, a)
            for a in argv]
    missing = tmp_path / "no-such-dir" / "out.txt"
    code, out, err = run_cli(capsys, *argv, flag, str(missing))
    assert code == 1
    assert err == ("error: cannot write output: [Errno 2] No such file or"
                   " directory: %r\n" % str(missing))
    assert not missing.parent.exists()


def test_diff_refuses_what_run_refuses_for_the_variant(capsys, tmp_path):
    path = tmp_path / "mistagged.spec"
    path.write_text("variant d\nat 2 : a0 |- CE\nreplace a0 -> a2\n",
                    encoding="utf-8")
    message = "error: spec tagged 'd' but the table produces counterexamples\n"
    for command in ("run", "diff"):
        code, out, err = run_cli(capsys, command, str(path), "--horizon", "50")
        assert (code, out, err) == (1, "", message), command


# ---------------------------------------------------------------------------
# diagonalize
# ---------------------------------------------------------------------------

def test_diagonalize_report_file(capsys, tmp_path):
    report = tmp_path / "diag.txt"
    code, out, err = run_cli(capsys, "diagonalize",
                             "--horizon", "400", "--window", "50",
                             "--report", str(report))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "opponent 0: S8done witness=a4"
    text = report.read_text(encoding="utf-8")
    assert text.startswith("diagonalization report\nhorizon 400 window 50\n")
    for header in ("[timeline]", "[rules]", "[verdicts]"):
        assert header in text

    again = tmp_path / "diag2.txt"
    run_cli(capsys, "diagonalize", "--horizon", "400", "--window", "50",
            "--report", str(again))
    assert report.read_bytes() == again.read_bytes()


def test_diagonalize_stdout_and_explicit_family(capsys):
    family = str(resources.files("dialectic") / "data" / "default.family")
    code, out, err = run_cli(capsys, "diagonalize", family,
                             "--horizon", "400", "--window", "50")
    assert code == 0
    assert out.startswith("diagonalization report\n")
    assert "opponent 0: S8done witness=a4" in out


@pytest.mark.parametrize("horizon, digest", [
    (10 ** 6, "87ea0ba1af93f7be75a109732af3dd334bbe32831757d50e338fc147145f2500"),
    (10 ** 7, "8177ff12731a852e635e0eca994da7c7660ece9f0c4c156fa14956807a824d66"),
])
def test_diagonalize_bytes_at_a_million_and_ten_million(capsys, horizon, digest):
    # digests of stdout taken when tailfirst still stored its whole σ;
    # its blocks of 1000 are now a count, so these cost their events
    code, out, err = run_cli(capsys, "diagonalize", "--horizon", str(horizon))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_diagonalize_stops_at_the_first_listed_value_over_the_limit(capsys):
    # tailfirst lists block 16777 from a16777999 down, so that is the
    # first value past a16777216 in position order; found by arithmetic,
    # without listing 2^24 positions
    code, out, err = run_cli(capsys, "diagonalize", "--horizon", str(10 ** 18))
    assert (code, out) == (1, "")
    assert err == ("error: opponent tailfirst: g gave a16777999, above the "
                   "limit a16777216\n")


def test_diagonalize_refuses_an_axiom_over_the_limit(capsys, tmp_path):
    path = tmp_path / "big.family"
    path.write_text("prog big = %d\nprog echo = x\nprog bump = (+ n 1)\n"
                    "opponent o : g=big h=echo r=bump\n" % (MAX_AXIOM + 1),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "diagonalize", str(path),
                             "--horizon", "5")
    assert (code, out) == (1, "")
    assert err == ("error: opponent o: g gave a%d, above the limit a%d\n"
                   % (MAX_AXIOM + 1, MAX_AXIOM))


# ---------------------------------------------------------------------------
# repair / revise
# ---------------------------------------------------------------------------

def test_repair_excises_least_entrenched(capsys, sample_kb):
    code, out, err = run_cli(capsys, "repair", sample_kb,
                             "--horizon", "200", "--window", "50")
    assert code == 0
    assert out == ("mode d\nhorizon 200 window 50\n"
                   "kept: k0 k1 k3\nremoved: k2\npartial: no\n")


def test_repair_q_mode_follows_hint(capsys, sample_kb, tmp_path):
    trace = tmp_path / "steps.txt"
    code, out, err = run_cli(capsys, "repair", sample_kb,
                             "--horizon", "200", "--window", "50",
                             "--mode", "q", "--trace", str(trace))
    assert code == 0
    assert out.startswith("mode q\n")
    assert "kept: k0 k1 k3" in out
    assert "\treplace\t" in trace.read_text(encoding="utf-8")


_COMPASS = ("item north\nitem east\nitem south\nitem west\nitem up\n"
            "conflict east south\nconflict west up\n")


@pytest.mark.parametrize("hints, message", [
    # south -> up; up is then replaced by west, which has no hint
    ("replace up -> west\nreplace south -> up\n",
     "error: no replacement for 'west' (stage 5, position 3)\n"),
    ("replace south -> south\n", "error: replacement fixed point at 'south'\n"),
    ("replace south -> east\nreplace east -> south\n",
     "error: replacement cycle through 'south' within depth 64\n"),
], ids=["missing", "fixed-point", "cycle"])
def test_repair_q_mode_errors_name_the_item(capsys, tmp_path, hints, message):
    kb = tmp_path / "compass.kb"
    kb.write_text(_COMPASS + hints, encoding="utf-8")
    assert run_cli(capsys, "repair", str(kb), "--mode", "q") == (1, "", message)
    # d mode does not read the hints
    code, out, err = run_cli(capsys, "repair", str(kb))
    assert (code, err) == (0, "") and "removed: south up\n" in out


def test_revise_accepts_supported_item(capsys, sample_kb, tmp_path):
    adds = tmp_path / "adds.kb"
    adds.write_text(ADD_OK, encoding="utf-8")
    code, out, err = run_cli(capsys, "revise", sample_kb, str(adds),
                             "--horizon", "200", "--window", "50")
    assert code == 0
    assert out == ("mode d\nhorizon 200 window 50\n"
                   "kept: k0 k1 k3\nremoved: k2\naccepted: k4\npartial: no\n")


def test_revise_rejects_self_refuting_item(capsys, sample_kb, tmp_path):
    adds = tmp_path / "adds.kb"
    adds.write_text(ADD_SELF_REFUTING, encoding="utf-8")
    code, out, err = run_cli(capsys, "revise", sample_kb, str(adds),
                             "--horizon", "200", "--window", "50")
    assert code == 1
    assert "rejected: the added item refutes itself" in out
    assert "kept: k0 k1 k2 k3" in out


def test_revise_kb_parse_error_exits_2(capsys, sample_kb, tmp_path):
    adds = tmp_path / "adds.kb"
    adds.write_text("item k4\nrule -> k4\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "revise", sample_kb, str(adds))
    assert code == 2
    assert err.startswith("parse error:")


# ---------------------------------------------------------------------------
# parser fuzz gate: whatever the input, every command that reads a file
# exits 0, 1 or 2 with at most one line on stderr (Miller, Fredriksen & So,
# CACM 33(12), 1990)
# ---------------------------------------------------------------------------

# small stages only: `validate` walks every stage up to the largest, so a
# readable stage in the millions would only measure that walk
GOOD_NUMBERS = st.sampled_from(["0", "1", "2", "3", "6", "12"])
BAD_NUMBERS = st.sampled_from(BAD_NUMERALS)
GOOD_SCRIPTS = st.sampled_from(["n", "x", "(+ n 1)", "(diverge)",
                                "(if (ge t 2) x n)"])
BAD_SCRIPTS = st.sampled_from(["(wat n)", "(+ n %s)" % LONG, "(", "(+ n ٣)",
                               "(not " * (MAX_SEXPR_DEPTH + 1) + "n"
                               + ")" * (MAX_SEXPR_DEPTH + 1)])
NAMES = st.sampled_from(["k0", "k1", "k2", "k4", "b", "ident", "loop"])
COMMENTS = st.sampled_from(["", "", " # note", "#", "\t# règle"])


def _grammars(numbers, scripts):
    """Line strategies of the spec, knowledge-base and family grammars."""
    axioms = numbers.map("a{}".format)
    return [
        st.one_of(
            st.builds("variant {}".format, st.sampled_from("dpqx")),
            st.builds("axioms {}".format, numbers),
            st.builds("at {} : {} |- {}".format, numbers,
                      st.lists(axioms, max_size=3).map(" ".join),
                      st.one_of(st.sampled_from(["BOT", "CE"]), axioms)),
            st.builds("replace {} -> {}".format, axioms, axioms)),
        st.one_of(
            st.builds("item {}".format, NAMES),
            st.builds("rule {} -> {}".format,
                      st.lists(NAMES, max_size=3).map(" ".join), NAMES),
            st.builds("conflict {}".format,
                      st.lists(NAMES, max_size=3).map(" ".join)),
            st.builds("replace {} -> {}".format, NAMES, NAMES)),
        st.one_of(
            st.builds("prog {} = {}".format, NAMES, scripts),
            st.builds("opponent {} : m={}".format, NAMES, numbers),
            st.builds("opponent {} : g={} h={} r={}{}".format, NAMES, NAMES,
                      NAMES, NAMES, st.sampled_from(["", " scan=full"]))),
    ]


def _files(lines):
    return st.lists(st.tuples(lines, COMMENTS).map("".join),
                    max_size=12).map("\n".join)


# a word soup of every grammar's keywords and tokens, for the noisy files
SOUP = st.lists(st.one_of(st.sampled_from([
    "variant", "axioms", "at", "replace", "item", "rule", "conflict", "prog",
    "opponent", ":", "|-", "->", "=", "BOT", "CE", "*", "#", "scan=full",
    "m=6", "g=", "règle", "٣", "²", LONG]), NAMES,
    st.one_of(GOOD_NUMBERS, BAD_NUMBERS).map("a{}".format)),
    max_size=8).map(" ".join)
FILES = st.one_of(
    *map(_files, _grammars(GOOD_NUMBERS, GOOD_SCRIPTS)),
    *(_files(st.one_of(lines, SOUP)) for lines in _grammars(
        st.one_of(GOOD_NUMBERS, BAD_NUMBERS),
        st.one_of(GOOD_SCRIPTS, BAD_SCRIPTS))))

FUZZ_COMMANDS = [
    ["validate", "F", "--bound", "4"],
    ["run", "F", "--horizon", "50"],
    ["repair", "F", "--horizon", "50"],
    ["repair", "F", "--horizon", "50", "--mode", "q"],
    ["revise", "KB", "F", "--horizon", "50"],
    # horizon 0 parses the family and builds every opponent, runs no program
    ["diagonalize", "F", "--horizon", "0"],
]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(content=st.one_of(st.text(max_size=400).map(str.encode),
                         st.binary(max_size=400),
                         FILES.map(str.encode)))
def test_any_input_file_exits_0_1_or_2(fuzz_file, content):
    fuzz_file.write_bytes(content)
    files = {"F": str(fuzz_file),
             "KB": str(resources.files("dialectic") / "data" / "sample.kb")}
    for argv in FUZZ_COMMANDS:
        argv = [files.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = err.getvalue()
        assert code in (0, 1, 2), argv
        assert text.count("\n") <= 1 and "Traceback" not in text, argv
