import argparse
import gc
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys

import pytest

from plattice import cli, cli_calculus, output
from plattice.cli import main
from plattice.frames import frame_shape
from plattice.descriptors import NODE_GROUPS, GroupDescriptor
from plattice.lattice import LatticeName
from plattice.tree import hypercircle

from .helpers import cusp_report_from_json, descriptor_from_json, graph_from_json
from .make_golden import GOLDEN
from .test_api import SRC_ROOT, fresh_python


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "[[0,-1],[4,0]]")
        assert code == 0 and out.strip() == "4,0"

    def test_reduce_fractions(self, capsys):
        code, out, _ = run(capsys, "reduce", "[[1,1/3],[0,1]]")
        assert code == 0 and out.strip() == "1,1/3"

    def test_hyperdistance(self, capsys):
        code, out, _ = run(capsys, "hyperdistance", "1,0", "2,0")
        assert code == 0 and out.strip() == "2"

    def test_index(self, capsys):
        code, out, _ = run(capsys, "index", "8")
        assert code == 0 and out.strip() == "12"

    def test_project(self, capsys):
        code, out, _ = run(capsys, "project", "6,0", "3")
        assert code == 0 and out.strip() == "3,0"

    def test_thread(self, capsys):
        code, out, _ = run(capsys, "thread", "1,0", "4,0")
        assert code == 0 and out.strip().splitlines() == ["1,0", "2,0", "4,0"]

    def test_cell(self, capsys):
        code, out, _ = run(capsys, "cell", "1,0", "4,0")
        assert code == 0 and out.strip() == "false"

    def test_level(self, capsys):
        code, out, _ = run(capsys, "level", "3|3")
        assert code == 0 and out.strip() == "9"

    def test_member_flag(self, capsys):
        code, out, _ = run(capsys, "groups", "4+", "--member", "[[0,-1],[4,0]]")
        assert code == 0 and out.strip() == "true"


class TestErrors:
    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, "reduce", "[[0,0],[0,0]]")
        assert code == 1 and "no primitive representative" in err

    def test_bad_rational_token(self, capsys):
        code, _, err = run(capsys, "reduce", "[[1,x],[0,1]]")
        assert code == 1 and "x" in err

    def test_determinant_error_prints_matrix_literal(self, capsys):
        code, _, err = run(capsys, "reduce", "[[1,0],[0,-1]]")
        assert code == 1
        assert "Fraction(" not in err
        assert err.strip() == "error: matrix does not have positive determinant: [[1,0],[0,-1]]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["hypercircle", "1/0,0", "2"],
            ["hyperdistance", "1,1/0", "1,0"],
            ["thread", "1,0", "1/0,0"],
            ["cell", "1,0", "1/0,0"],
            ["project", "1/0,0", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_zero_denominator_in_a_name(self, argv):
        # these printed "error: Fraction(1, 0)"; a matrix literal names the token
        proc = fresh_python("-m", "plattice.cli", *argv, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: bad rational literal '1/0'\n"

    @pytest.mark.parametrize("token", ["0.5", "1e2", "1_0", "1/-3", "1/0"])
    def test_a_rational_is_an_integer_or_a_ratio(self, capsys, token):
        # Fraction read the first three; a token is p or p/q in decimal digits
        for argv in (["reduce", "[[%s,0],[0,1]]" % token], ["hyperdistance", "%s,0" % token, "1,0"]):
            assert run(capsys, *argv) == (1, "", "error: bad rational literal %r\n" % token)

    def test_usage_error_exit_two(self, capsys):
        code, _, _ = run(capsys, "not-a-command")
        assert code == 2

    def test_labelled_order_three_kernel_exits_one(self, capsys):
        code, out, err = run(capsys, "groups", "6|3+")
        assert (code, out) == (1, "")
        assert err == "error: kernel subgroup not implemented for (h, n) = (3, 6) with labels [2]\n"

    @pytest.mark.parametrize(
        "name, message",
        [
            ("6+a", "bad group name '6+a'"),
            ("6|x", "bad group name '6|x'"),
            ("6|2", "kernel subgroup not implemented for (h, n) = (2, 6)"),
            ("6|0", "descriptor needs h | n, got h=0 n=6"),
            ("6|0+", "descriptor needs h | n, got h=0 n=6"),
        ],
    )
    def test_group_name_errors_say_what_is_wrong(self, capsys, name, message):
        # only a name that is not made of integers is a bad name; the
        # constructor's own reasons reach the user
        code, out, err = run(capsys, "groups", name)
        assert (code, out, err) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("6|2", "kernel subgroup not implemented for (h, n) = (2, 6)"),
            ("7+", "7+ is not one of the nine vertex groups"),
        ],
    )
    def test_eta_group_name_errors_say_what_is_wrong(self, capsys, name, message):
        # a group name is not read as a Frame shape, whose parser would
        # report the name as a bad integer
        code, out, err = run(capsys, "eta", name)
        assert (code, out, err) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hyperdistance", "-2/4,0", "1,0"], "lattice name needs M > 0, got -1/2"),
            (["hyperdistance", "1,0", "--json", "-2,0"], "lattice name needs M > 0, got -2"),
            (["hyperdistance", "--format", "json", "1,0", "-2,0"], "lattice name needs M > 0, got -2"),
            (["hypercircle", "-1/2,0", "2"], "lattice name needs M > 0, got -1/2"),
            (["thread", "1,0", "-3,0"], "lattice name needs M > 0, got -3"),
            (["cell", "-1,0", "1,0"], "lattice name needs M > 0, got -1"),
            (["project", "-1,0", "2"], "lattice name needs M > 0, got -1"),
        ],
    )
    def test_a_value_may_begin_with_minus_and_a_digit(self, capsys, argv, message):
        # argparse read the names as unknown options and exited 2, saying a
        # positional argument was missing
        assert run(capsys, *argv) == (1, "", "error: %s\n" % message)

    def test_a_frame_shape_may_begin_with_minus_and_a_digit(self, capsys):
        # this said "parts must have increasing bases and nonzero exponents"
        message = "error: bad Frame shape '-1^24': base -1 is below 1\n"
        assert run(capsys, "eta", "-1^24") == (1, "", message)

    @pytest.mark.parametrize("text", ["0^24", "1^24 / 0^3"])
    def test_a_frame_shape_base_of_zero_is_named(self, capsys, text):
        message = "error: bad Frame shape %r: base 0 is below 1\n" % text
        assert run(capsys, "eta", text) == (1, "", message)

    def test_the_negative_value_hook_exists(self):
        # the "-<digit>" values rest on this private attribute of argparse
        assert hasattr(argparse.ArgumentParser()._negative_number_matcher, "match")

    def test_other_dash_tokens_are_still_options(self, capsys):
        code, out, err = run(capsys, "hyperdistance", "-x", "1,0")
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: right\n")
        code, out, _ = run(capsys, "hyperdistance", "-h")
        assert code == 0 and out.startswith("usage: plattice hyperdistance [-h]")

    @pytest.mark.parametrize("text", ["1^x", "^3", "1.5^24", "1^24^2", "1^", "24^"])
    def test_eta_of_a_malformed_part_names_the_shape(self, capsys, text):
        # these said "invalid literal for int() with base 10: ...", and a
        # part with "^" but no exponent was read as the exponent 1
        assert run(capsys, "eta", text) == (1, "", "error: bad Frame shape %r\n" % text)

    def test_bad_prime(self, capsys):
        code, _, err = run(capsys, "project", "1,0", "6")
        assert code == 1 and "not prime" in err

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        def broken(args):
            raise AssertionError("cusp widths of level 8 do not sum to the index")

        monkeypatch.setattr(cli_calculus, "cmd_index", broken)
        code, out, err = run(capsys, "index", "8")
        assert code == 3 and out == ""
        assert err == "internal error: cusp widths of level 8 do not sum to the index\n"


COMMAND_NAMES = list(cli.COMMANDS)
USAGE = """usage: plattice [-h]
                {reduce,hyperdistance,hypercircle,thread,cell,project,index,cusps,groups,level,classify,diagram,super,eta}
                ...
"""
COMMAND_HELP = "\n".join(
    "    %-20s%s" % (name, help_text) for name, (_, help_text, _) in cli.COMMANDS.items()
)


def parse_with_the_full_parser(capsys, argv):
    try:
        cli.build_parser().parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = int(exc.code or 0)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    # argparse wraps its texts at the terminal width, read from COLUMNS
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_fourteen_commands(self):
        assert len(COMMAND_NAMES) == 14

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_command_help_is_the_full_parsers(self, capsys, command):
        found = run(capsys, command, "--help")
        assert found[0] == 0 and found[1].startswith("usage: plattice %s [-h]" % command)
        assert found == parse_with_the_full_parser(capsys, [command, "--help"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["eta", "3|3", "extra"],
            ["index", "x"],
            ["index", "8", "--format", "xml"],
            ["cell"],
            ["super", "--series"],
            ["super", "--check-invariance", "--tol", "1e-6"],
        ],
        ids=["extra-word", "bad-int", "bad-choice", "missing-positional", "missing-value", "unknown-flag"],
    )
    def test_command_usage_errors_are_the_full_parsers(self, capsys, argv):
        found = run(capsys, *argv)
        assert found[0] == 2 and found[2].startswith("usage: plattice")
        assert found == parse_with_the_full_parser(capsys, argv)

    @pytest.mark.parametrize("command", ["eta", "classify"])
    def test_a_command_word_builds_only_its_parser(self, capsys, monkeypatch, command):
        built = []
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or full(only))
        run(capsys, command, "--help")
        run(capsys, "bogus")
        assert built == [command, None]

    @pytest.mark.parametrize(
        "argv",
        [
            ["eta", "3|3", "--order", "20"],
            ["classify", "--index-bound", "33", "--ratio-bound", "5", "--relax-width", "--json"],
            ["cell", "1,0", "2,0", "--format", "json"],
            ["hyperdistance", "-2/4,0", "1,0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_plain_command_line_builds_no_parser(self, capsys, monkeypatch, argv):
        def refuse(command=None):
            raise AssertionError("built the parser of %s" % command)

        monkeypatch.setattr(cli, "build_parser", refuse)
        code, _, err = run(capsys, *argv)
        assert code in (0, 1) and not err.startswith("internal error")

    def test_no_arguments(self, capsys):
        expected = USAGE + "plattice: error: the following arguments are required: command\n"
        assert run(capsys) == (2, "", expected)

    def test_help(self, capsys):
        expected = (
            USAGE
            + "\nexact projective-lattice calculus for arithmetic groups\n\npositional arguments:\n"
            + "  {reduce,hyperdistance,hypercircle,thread,cell,project,index,cusps,groups,level,classify,diagram,super,eta}\n"
            + COMMAND_HELP
            + "\n\noptions:\n  -h, --help            show this help message and exit\n"
        )
        assert run(capsys, "--help") == (0, expected, "")

    def test_unknown_command(self, capsys):
        choices = ", ".join("'%s'" % name for name in COMMAND_NAMES)
        expected = USAGE + "plattice: error: argument command: invalid choice: 'bogus' (choose from %s)\n" % choices
        assert run(capsys, "bogus") == (2, "", expected)

    def test_command_without_its_argument(self, capsys):
        expected = (
            "usage: plattice eta [-h] [--format {text,json,dot}] [--json] [--order ORDER]\n"
            "                    shape\n"
            "plattice eta: error: the following arguments are required: shape\n"
        )
        assert run(capsys, "eta") == (2, "", expected)


# A seeded corpus of command lines over all fourteen commands: plain ones,
# then mutated by the words and orders that only argparse reads.
VALUES = {
    str: ["1,0", "2,0", "-2,0", "3|3", "4|2+", "8", "[[0,-1],[4,0]]", "2^6 6^6 / 1^6 3^6", "-1^24", "", "x"],
    int: ["3", "8", "-3", "+5", " 7", "x", "1.5", "", "-"],
    float: ["1e-6", "-1e-3", "0.5", "nan", "x", "", "-.5"],
}
ODD_WORDS = ["--", "-h", "--help", "--order=7", "--ord", "7", "--format", "xml", "--json", "-x", "extra"]


def _arguments(command):
    for argument in cli.SHARED_OPTIONS + cli.COMMANDS[command][2]:
        yield argument if isinstance(argument, tuple) else (argument, {})


def _value(rng, options):
    if "choices" in options:
        return rng.choice(list(options["choices"]) + ["xml"])
    return rng.choice(VALUES[options.get("type", str)])


def _plain_argv(rng, command):
    argv, options_part = [command], []
    for flag, options in _arguments(command):
        if not flag.startswith("-"):
            argv += [_value(rng, options) for _ in range(rng.randint(1, 3) if "nargs" in options else 1)]
        elif rng.random() < 0.4:
            switch = options.get("action") == "store_true"
            options_part.append([flag] if switch else [flag, _value(rng, options)])
    rng.shuffle(options_part)
    return argv + [word for pair in options_part for word in pair]


def _flag_at(rng, argv):
    # one flag of argv chosen at random: its index and its words, the flag
    # with the value that follows it
    flags = [i for i, word in enumerate(argv) if word.startswith("--")]
    if not flags:
        return None
    i = rng.choice(flags)
    return i, argv[i : i + 2 if i + 1 < len(argv) and cli._is_value(argv[i + 1]) else i + 1]


def _mutated(rng, argv):
    argv = list(argv)
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        kind = rng.randrange(5)
        flag = _flag_at(rng, argv) if kind in (2, 3) else None
        if kind == 0:
            argv.insert(rng.randint(1, len(argv)), rng.choice(ODD_WORDS))
        elif kind == 1 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif flag:
            i, words = flag
            if kind == 2:
                # moved before or between the positionals
                del argv[i : i + len(words)]
                argv[1:1] = words
            else:
                argv += words  # given twice
        else:
            argv.insert(rng.randint(1, len(argv)), rng.choice(VALUES[rng.choice([str, int, float])]))
    return argv


def reader_corpus(seed=25, count=1200):
    rng = random.Random(seed)
    return [_mutated(rng, _plain_argv(rng, rng.choice(COMMAND_NAMES))) for _ in range(count)]


def _attributes(namespace):
    # by repr, so that 7 differs from "7"
    return repr(sorted(vars(namespace).items()))


def _outcome(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReader:
    """``main`` reads plain command lines without argparse; nothing else changes."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_the_corpus_reaches_both_paths(self):
        read = sum(cli._read_argv(argv) is not None for argv in reader_corpus())
        assert 200 < read < 1000

    def test_a_read_namespace_is_argparses(self, capsys):
        mismatches = []
        for argv in reader_corpus():
            args = cli._read_argv(argv)
            if args is None:
                continue
            try:
                expected = _attributes(cli.build_parser(argv[0]).parse_args(argv))
            except SystemExit:
                expected = capsys.readouterr().err
            if _attributes(args) != expected:
                mismatches.append((argv, vars(args), expected))
        assert mismatches == []

    def test_main_prints_what_the_argparse_path_prints(self, capsys, monkeypatch):
        # every line of the corpus, read or declined, against main with the
        # reader switched off
        corpus = reader_corpus()
        found = [_outcome(capsys, argv) for argv in corpus]
        monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
        expected = [_outcome(capsys, argv) for argv in corpus]
        mismatches = [(argv, f, e) for argv, f, e in zip(corpus, found, expected) if f != e]
        assert mismatches == []

    def test_a_value_begins_with_minus_and_a_digit_as_argparses_pattern_says(self):
        # the rule argparse was given as the pattern -\d before, over every
        # character that may follow the minus
        import re

        differ = [c for c in range(0x110000) if cli._is_value("-" + chr(c)) != bool(re.match(r"-\d", "-" + chr(c)))]
        assert differ == []
        assert cli._is_value("") and cli._is_value("x") and not cli._is_value("-") and not cli._is_value("--")

    @pytest.mark.parametrize(
        "argv, plain",
        [
            (["eta", "--order", "20", "3|3"], ["eta", "3|3", "--order", "20"]),
            (["eta", "3|3", "--order=20"], ["eta", "3|3", "--order", "20"]),
            (["eta", "3|3", "--ord", "20"], ["eta", "3|3", "--order", "20"]),
            (["hyperdistance", "1,0", "--json", "4,0"], ["hyperdistance", "1,0", "4,0", "--json"]),
            (["index", "8", "--format", "text", "--format", "json"], ["index", "8", "--format", "json"]),
        ],
        ids=["option-first", "equals", "abbreviated", "option-between", "repeated"],
    )
    def test_other_spellings_go_through_argparse(self, capsys, monkeypatch, argv, plain):
        expected = {
            "eta": "q^-1 - 8 q^2 + 28 q^5 - 64 q^8 + 134 q^11 - 288 q^14 + 568 q^17 - 1024 q^20\n",
            "hyperdistance": "4\n",
            "index": "12\n",
        }[argv[0]]
        assert cli._read_argv(argv) is None and cli._read_argv(plain) is not None
        built = []
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or full(only))
        assert run(capsys, *argv) == (0, expected, "")
        assert run(capsys, *plain) == (0, expected, "")
        assert built == [argv[0]]


class TestJsonRoundTrips:
    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 9
        descriptors = {descriptor_from_json(d["group"]) for d in data}
        assert GroupDescriptor.kernel(3, 3) in descriptors
        for entry in data:
            assert entry["conditions"]["width_one"] is True
            assert entry["conditions"]["exponent_two"] is True

    def test_cusps_json_round_trip(self, capsys):
        from plattice.cusps import cusps_of_gamma0

        code, out, _ = run(capsys, "cusps", "9", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["group"]["display"] == "9"
        widths = sorted(c["width"] for c in data["cusps"])
        assert widths == ["1", "1", "1", "9"]
        assert cusp_report_from_json(data) == cusps_of_gamma0(9)

    def test_diagram_json_round_trip(self, capsys):
        from plattice.diagram import build_graph, node_vertex_data

        code, out, _ = run(capsys, "diagram", "--json")
        data = json.loads(out)
        assert code == 0
        assert len(data["vertices"]) == 9
        assert len(data["edges"]) == 8
        parsed = graph_from_json(data)
        built = build_graph(node_vertex_data())
        assert parsed.vertices == built.vertices
        assert {frozenset(e) for e in parsed.edges} == {frozenset(e) for e in built.edges}

    def test_hypercircle_json(self, capsys):
        code, out, _ = run(capsys, "hypercircle", "1,0", "9", "--json")
        data = json.loads(out)
        assert len(data["members"]) == 12


class CountingStdout:
    """A stdout stand-in that keeps what is written and counts the writes."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


class ByteCountingStdout:
    """A stdout stand-in that keeps only the number of bytes written (the
    output is ASCII, one byte a character)."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


class TestPrintJson:
    @staticmethod
    def payloads():
        """(name, payload, the payload's value with its iterators as lists)"""
        from plattice.cusps import cusps_of_gamma0
        from plattice.diagram import build_graph, node_vertex_data
        from plattice.lattice import L1
        from plattice.tree import hypercircle

        from .helpers import orbit_cusp_outputs

        circle = hypercircle(L1, 5000)
        yield "classify", None, None
        graph = build_graph(node_vertex_data()).to_json()
        yield "diagram", graph, graph
        yield "cusps", cusps_of_gamma0(3218).to_json(), orbit_cusp_outputs(3218)[1]
        head = {"center": "1,0", "radius": 5000}
        members = [str(x) for x in circle]
        yield "hypercircle", dict(head, members=map(str, circle)), dict(head, members=members)

    def test_bytes_and_writes(self, capsys, monkeypatch):
        for name, payload, value in self.payloads():
            if payload is None:
                # the classify payload is assembled inside its command
                assert main(["classify", "--json"]) == 0
                payload = value = json.loads(capsys.readouterr().out)
            stdout = CountingStdout()
            monkeypatch.setattr(sys, "stdout", stdout)
            output.print_json(payload)
            monkeypatch.undo()
            out = "".join(stdout.parts)
            assert out == json.dumps(value, indent=2, sort_keys=True) + "\n", name
            assert len(stdout.parts) <= len(out.encode()) // 65536 + 2, name

    @pytest.mark.parametrize(
        "argv", [["cusps", "27720", "--json"], ["hypercircle", "2/3,1/7", "99991", "--json"]], ids=lambda a: a[0]
    )
    def test_json_holds_no_list_of_names(self, monkeypatch, argv):
        # the orbits and the members are printed as they are generated: the
        # peak is the write batch, a small fraction of the output
        import tracemalloc

        monkeypatch.setattr(sys, "stdout", ByteCountingStdout())
        assert main(argv) == 0  # loads the modules and fills the caches
        stdout = ByteCountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stdout.size > 2_000_000
        assert peak < stdout.size / 4, (peak, stdout.size)

    def test_large_outputs_are_written_in_batches(self, monkeypatch):
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["hypercircle", "1,0", "5000"]) == 0
        monkeypatch.undo()
        out = "".join(stdout.parts)
        assert len(out.splitlines()) == 9000
        assert len(stdout.parts) <= len(out.encode()) // 65536 + 2


class TestDot:
    def test_diagram_dot(self, capsys):
        code, out, _ = run(capsys, "diagram", "--format", "dot")
        assert code == 0
        assert out.count(" -- ") == 8
        assert out.count("label=") == 9

    def test_hypercircle_dot(self, capsys):
        code, out, _ = run(capsys, "hypercircle", "1,0", "4", "--format", "dot")
        assert code == 0 and out.startswith("graph hypercircle")

    @pytest.mark.parametrize("argv", [["diagram"], ["hypercircle", "1,0", "30"]], ids=lambda argv: argv[0])
    def test_json_wins_over_a_later_format(self, capsys, argv):
        # the golden records give --format dot --json; this is the other order
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out[:1], err) == (0, "{", "")
        assert run(capsys, *argv, "--json", "--format", "dot") == (code, out, err)

    @pytest.mark.parametrize("center, radius", [("1,0", 1), ("1,0", 2000), ("2/3,1/5", 360), ("3,1/2", 12)])
    def test_hypercircle_dot_is_streamed(self, monkeypatch, center, radius):
        # the bytes of the whole text joined at once, written in 64 KiB batches
        members = hypercircle(LatticeName.parse(center), radius).members
        lines = ["graph hypercircle {", '  node [shape=box, fontname="monospace"];']
        lines.extend('  n%d [label="%s"];' % (i, name) for i, name in enumerate(members))
        lines.append("}")
        expected = "\n".join(lines) + "\n"

        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["hypercircle", center, str(radius), "--format", "dot"]) == 0
        assert stdout.getvalue() == expected
        assert stdout.writes <= len(expected.encode()) // 65536 + 2

    def test_wide_hypercircle_dot_answers(self):
        # the rendering once compared every pair of members for an edge
        # that never exists; 3600 members took well over a minute
        argv = ["hypercircle", "1,0", "2000", "--format", "dot"]
        proc = fresh_python("-m", "plattice.cli", *argv, timeout=30, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 + 3600 and lines[-1] == "}"
        assert not any(" -- " in line for line in lines)


class TestHypercircleCollector:
    OUTPUTS = {
        "text": "1/2,0\n1/2,1/2\n2,0\n",
        "json": '{\n  "center": "1,0",\n  "members": [\n    "1/2,0",\n    "1/2,1/2",\n    "2,0"\n  ],\n  "radius": 2\n}\n',
        "dot": 'graph hypercircle {\n  node [shape=box, fontname="monospace"];\n'
        '  n0 [label="1/2,0"];\n  n1 [label="1/2,1/2"];\n  n2 [label="2,0"];\n}\n',
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, capsys, enabled):
        # the command leaves the cyclic collector as it found it, on
        # success and on a budget error alike
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for fmt, expected in self.OUTPUTS.items():
                assert run(capsys, "hypercircle", "1,0", "2", "--format", fmt) == (0, expected, "")
                assert gc.isenabled() == enabled
            code, out, err = run(capsys, "hypercircle", "1,0", "1000000")
            assert (code, out) == (1, "") and "budget" in err
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestMainLeavesTheCollector:
    @pytest.mark.parametrize(
        "argv",
        [["index", "1"], ["super", "--series", "5", "--json"], ["hypercircle", "1,0", "1000000"], ["index", "x"]],
        ids=["success", "json", "domain-error", "usage-error"],
    )
    def test_no_freeze_and_no_switch(self, capsys, argv):
        # only the program, cli.run, freezes the collector before its exit;
        # the in-process API, which the tests call thousands of times, never does;
        # the count is compared with its own start, which is not 0 on every version
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        main(argv)
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


class TestHypercircleStream:
    def test_text_holds_no_list_of_names(self, monkeypatch):
        import tracemalloc

        class NullStdout:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        tracemalloc.start()
        try:
            # what holding the 99992 names as one tuple would take
            held = hypercircle(LatticeName.parse("2/3,1/7"), 99991).members
            tuple_peak = tracemalloc.get_traced_memory()[1]
            del held
            tracemalloc.reset_peak()
            monkeypatch.setattr(sys, "stdout", NullStdout())
            assert main(["hypercircle", "2/3,1/7", "99991"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tuple_peak / 10, (peak, tuple_peak)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify",),
            ("diagram",),
            ("super", "--frame-shapes"),
            ("cusps", "12"),
            ("hypercircle", "1,0", "12"),
            ("eta", "2^6 6^6 / 1^6 3^6", "--order", "12"),
        ],
    )
    def test_identical_bytes(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestSuper:
    def test_mapping_table(self, capsys):
        code, out, _ = run(capsys, "super")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 9
        assert lines[0].split("\t") == ["1", "2"]
        assert lines[6].split("\t") == ["3|3", "6|3"]

    def test_eta_by_group_name(self, capsys):
        code, out, _ = run(capsys, "eta", "1", "--order", "2")
        assert code == 0 and out.startswith("q^-1 - 24 + 276 q")

    @pytest.mark.parametrize(
        "text, shape",
        [("24", "24^1"), ("1^+24", "1^24")]
        + [(g.display, frame_shape(g).display) for g in NODE_GROUPS],
    )
    def test_eta_reads_vertex_names_and_frame_shapes(self, capsys, text, shape):
        # a bare number that names no vertex group is a Frame shape
        found = run(capsys, "eta", text, "--order", "6")
        assert found == run(capsys, "eta", shape, "--order", "6")
        assert found[0] == 0

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("24", (0, "q^-1 - q^23\n", "")),
            ("1", (0, "q^-1 - 24 + 276 q - 2048 q^2 + 11202 q^3\n", "")),
            ("1^+24", (0, "q^-1 - 24 + 276 q - 2048 q^2 + 11202 q^3\n", "")),
            ("2^3 / 1^x", (1, "", "error: bad Frame shape '2^3 / 1^x'\n")),
        ],
        ids=["bare-number", "group-name", "signed-exponent", "bad-exponent"],
    )
    def test_eta_text_forms_print_pinned_bytes(self, capsys, text, expected):
        order = "50" if text == "24" else "3"
        assert run(capsys, "eta", text, "--order", order) == expected

    @pytest.mark.parametrize(
        "text, read_as",
        [
            ("3+3", "3+"),
            ("02+", "2+"),
            ("24", "24^1"),
            ("1 23", "1^1 23^1"),
            ("7+", "error: 7+ is not one of the nine vertex groups\n"),
            ("6|2", "error: kernel subgroup not implemented for (h, n) = (2, 6)\n"),
            ("3||3", "error: bad group name '3||3'\n"),
            # these printed the series of the vertex name 1 and of 24^1
            ("01", "error: fractional leading exponent for 1^1\n"),
            ("+24", "error: bad group name '+24'\n"),
        ],
    )
    def test_eta_reads_its_text_by_one_rule(self, capsys, text, read_as):
        # README's rule (Command line): a group name's errors are the group
        # parser's, and a bare number is a Frame shape
        found = run(capsys, "eta", text, "--order", "6")
        if read_as.startswith("error: "):
            assert found == (1, "", read_as)
        else:
            assert found == run(capsys, "eta", read_as, "--order", "6")
            assert found[0] == 0

    def test_check_invariance(self, capsys):
        code, out, _ = run(capsys, "super", "--check-invariance")
        assert code == 0
        assert out.count("True") == 9

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_check_invariance_loads_no_diagram(self, capsys, monkeypatch, fmt):
        # the level group is decided by Ligozat's criterion, so the check
        # needs no Schreier generators and prints the benchmark's recorded bytes
        digests = json.loads((SRC_ROOT.parent / "perfbench" / "digests.json").read_text())
        monkeypatch.setitem(sys.modules, "plattice.diagram", None)
        code, out, _ = run(capsys, "super", "--check-invariance", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests["super --check-invariance --format " + fmt]

    @pytest.mark.parametrize("text", ["", " / ", "/", "1^24 / 1^24", "1^0", "2^0"])
    def test_eta_of_text_without_parts_exits_one(self, capsys, text):
        # these printed the series 1 with exit 0; so did exponents that cancel
        assert run(capsys, "eta", text) == (1, "", "error: Frame shape %r has no parts\n" % text)

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_series_rows_are_printed_one_at_a_time(self, monkeypatch, fmt):
        # each row is printed, its series in pieces, before the next row is
        # made, so the command never holds the rows' text: with the nine
        # series expanded beforehand, it takes less than a quarter of it
        import tracemalloc

        from plattice import frames

        class NullStdout:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        expanded = {shape: frames.eta_quotient_series(shape, 3000) for shape in frames.FRAME_SHAPES}
        text = sum(len(str(series)) for series in expanded.values())
        monkeypatch.setattr(frames, "eta_quotient_series", lambda shape, order: expanded[shape])
        monkeypatch.setattr(sys, "stdout", NullStdout())
        assert main(["super", "--series", "5"] + fmt) == 0  # loads the layers untraced
        tracemalloc.start()
        try:
            assert main(["super", "--series", "3000"] + fmt) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < text / 4, (peak, text)

    def test_eta_is_written_in_batches(self, monkeypatch):
        from plattice.frames import FrameShape, eta_quotient_series

        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["eta", "1^24", "--order", "2000"]) == 0
        monkeypatch.undo()
        expected = str(eta_quotient_series(FrameShape.parse("1^24"), 2000)) + "\n"
        assert "".join(stdout.parts) == expected
        assert len(stdout.parts) == len(expected) // output.WRITE_BATCH + 1 == 3

    def test_cold_eta_prints_the_joined_series(self):
        from plattice.frames import FrameShape, eta_quotient_series

        proc = fresh_python("-m", "plattice.cli", "eta", "1^24", "--order", "2000")
        assert proc.stdout == str(eta_quotient_series(FrameShape.parse("1^24"), 2000)) + "\n"
        assert len(proc.stdout) > 2 * output.WRITE_BATCH


class TestInputBudgets:
    # Each of these hung (or ran for minutes) before the input budgets; run
    # them in a fresh process with a timeout so a regression fails, not hangs.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["index", "1000000000000000003"], "cannot factorize 1000000000000000003"),
            (["cusps", "1000000000000000003"], "cannot factorize 1000000000000000003"),
            (["project", "1,0", "1000000000000000003"], "cannot factorize 1000000000000000003"),
            (["hypercircle", "1,0", "1000000"], "hypercircle of radius 1000000 has 1800000 members"),
            (["cusps", "1000000"], "hypercircle of radius 1000000 has 1800000 members"),
            (["eta", "1^24", "--order", "100000"], "cannot expand to order 100000"),
            (["super", "--series", "100000"], "cannot expand to order 100000"),
            (["eta", "1^2400000", "--order", "1"], "cannot expand to order 1: 100001 terms after q^-100000"),
        ],
        ids=["index-huge", "cusps-huge", "project-huge", "hypercircle-wide", "cusps-wide", "eta-order", "super-series", "eta-pole"],
    )
    def test_over_budget_input_exits_one(self, argv, message):
        proc = fresh_python("-m", "plattice.cli", *argv, timeout=30, check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: " + message)
        assert "budget" in proc.stderr

    # These ran past their timeouts while levels, threads and divisors were
    # found by searches and linear scans instead of closed forms.  A plain
    # name above the factorizing budget is answered: its labels, none, are
    # checked one at a time, with no factorization.
    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["level", "100000000000"], ["100000000000"]),
            (["thread", "1,0", "1099511627776,0"], ["%d,0" % 2**k for k in range(41)]),
            (["level", "1000000000000000003"], ["1000000000000000003"]),
            (
                ["groups", "1000000000000000003"],
                [
                    "character: None",
                    "display: 1000000000000000003",
                    "h: 1",
                    "intersection_level: 1000000000000000003",
                    "n: 1000000000000000003",
                    "plus: []",
                    "width_at_infinity: 1",
                ],
            ),
            (
                # its display compares the labels with every label only
                # when they hold n/h, so n/h is not factorized here
                ["groups", "2000000000000000006+2"],
                [
                    "character: None",
                    "display: 2000000000000000006+2",
                    "h: 1",
                    "intersection_level: 2000000000000000006",
                    "n: 2000000000000000006",
                    "plus: [2]",
                    "width_at_infinity: 1",
                ],
            ),
        ],
        ids=[
            "level-huge",
            "thread-2^40",
            "level-above-budget",
            "groups-above-budget",
            "groups-labelled-above-budget",
        ],
    )
    def test_large_input_answers(self, argv, lines):
        proc = fresh_python("-m", "plattice.cli", *argv, timeout=30, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == lines

    def test_large_group_name_answers(self):
        proc = fresh_python("-m", "plattice.cli", "groups", "100000000000", timeout=30, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "intersection_level: 100000000000" in proc.stdout.splitlines()

    @pytest.mark.parametrize(
        "argv, number",
        [
            (["thread", "1,0", "10000000000000000,0"], "10000000000000000"),
            # a bare "+" adjoins every label, which needs the factorization
            (["groups", "1000000000000000003+"], "1000000000000000003"),
            # so does the display of a label set holding n/h, compared with it
            (["groups", "2000000000000000006+2000000000000000006"], "2000000000000000006"),
        ],
        ids=["thread-huge", "groups-huge", "groups-label-n"],
    )
    def test_over_the_factorize_budget(self, argv, number):
        proc = fresh_python("-m", "plattice.cli", *argv, timeout=30, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: cannot factorize %s: above the budget of 10**15\n" % number


class TestBrokenPipe:
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_reader_exits_quietly(self, unbuffered):
        # the read end is closed before the command prints, as when
        # ``plattice diagram | head -2`` has already exited
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "plattice.cli", "diagram"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
        assert (proc.returncode, err) == (1, b"")


def _format(words):
    if "--json" in words:
        return "json"
    return words[words.index("--format") + 1] if "--format" in words else "text"


GOLDEN_RECORDS = json.loads(GOLDEN.read_text())


def program_sample() -> list:
    """The first golden record of each command and format that exits 0,
    then the first that exits 1 (a domain error) and 2 (a usage error)."""
    sample = {}
    for line, record in GOLDEN_RECORDS.items():
        words = shlex.split(line)
        sample.setdefault((words[0], _format(words)) if record["exit"] == 0 else record["exit"], line)
    return list(sample.values())


class TestProgram:
    """``python -m plattice.cli``, which runs ``cli.run``, in a fresh interpreter."""

    @pytest.mark.parametrize("line", program_sample())
    def test_prints_the_golden_bytes(self, line):
        env = dict(os.environ, COLUMNS="80", PYTHONIOENCODING="utf-8")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "plattice.cli", *shlex.split(line)], env=env, capture_output=True, timeout=60
        )
        found = {
            "stdout": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": hashlib.sha256(proc.stderr).hexdigest(),
            "exit": proc.returncode,
        }
        assert found == GOLDEN_RECORDS[line]

    def test_the_sample_reaches_every_command_and_exit(self):
        lines = program_sample()
        assert {shlex.split(line)[0] for line in lines if line} == set(cli.COMMANDS)
        assert {GOLDEN_RECORDS[line]["exit"] for line in lines} == {0, 1, 2}

    @pytest.mark.parametrize("argv, code, out", [(["index", "7"], 0, "8\n"), (["index", "0"], 1, "")])
    def test_run_freezes_the_collector_and_still_runs_atexit(self, argv, code, out):
        # an atexit handler registered before the command sees the frozen,
        # still enabled collector, and the exit status is main's; the freeze
        # count starts above 0 on some versions, so it is compared with its start
        script = (
            "import atexit, gc, sys\n"
            "frozen = gc.get_freeze_count()\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > frozen, gc.isenabled(), file=sys.stderr))\n"
            "from plattice.cli import run\n"
            "run()\n"
        )
        proc = fresh_python("-c", script, *argv, check=False)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert proc.stderr.endswith("True True\n")

    def test_importtime_logs_the_handler_module(self):
        # -X importtime logs only what an import statement loads, so the
        # handler module has a line only if main imports it as one does
        proc = fresh_python("-X", "importtime", "-m", "plattice.cli", "classify")
        logged = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "plattice.cli_classify" in logged

    def test_the_console_script_is_run(self):
        # the table's lines, read as text on every admitted version (tomllib is 3.11 and up)
        config = (SRC_ROOT.parent / "pyproject.toml").read_text()
        table = config.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert table.strip().splitlines() == ['plattice = "plattice.cli:run"']
