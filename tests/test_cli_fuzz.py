"""Generated command lines against cli.main.

Each example draws a subcommand and, from that subcommand's own argparse
options, a value for every required option and for some optional ones:
fields valid and invalid, grammar expressions in t (in s and t for the
surface commands), parameters z along t = 0, places, lattice literals and
small integers.  Every law holds, so a run exits 0, 2 or 3 (or 4 on a
violated hypothesis); an exit 1 or an escaping exception is a bug, and so
is a call that runs past its time bound.
"""
import argparse
import contextlib
import io
import time

from hypothesis import given, settings, strategies as st

from reciprocity_lab import cli

_FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:5", "Fp:13", "Fp:4", "R")
_SUBCOMMANDS = next(
    action for action in cli._build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)).choices


def _expressions(variables):
    """Grammar texts of up to about six leaves, exponents in -4..4."""
    leaf = st.one_of(st.integers(-9, 9).map(str), st.sampled_from(variables))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda x: f"({x[0]}){x[1]}({x[2]})"),
            st.tuples(inner, st.integers(-4, 4)).map(
                lambda x: f"({x[0]})^{x[1]}"))

    return st.recursive(leaf, extend, max_leaves=6)


_INDICES = st.lists(st.integers(-8, 8), max_size=3).map(
    lambda xs: ",".join(map(str, xs)))
_LATTICES = st.builds("ray:{};add:{};del:{}".format, st.integers(-6, 6),
                      _INDICES, _INDICES)


def _places(v):
    return st.one_of(st.sampled_from((v, f"{v}+1", f"{v}-2", f"{v}^2+1",
                                      "inf")), _expressions((v,)))


# parameters along t = 0: arbitrary texts rarely vanish to first order, so
# also t times a function of s, t times a curve unit, and the empty text
_PARAMETERS = st.one_of(
    _expressions(("s", "t")), _expressions(("s",)).map("t*({})".format),
    _expressions(("s", "t")).map("t*(1+({})*t)".format), st.just(""))

# values by flag, for the curve commands and for the surface commands
_VALUES = {surface: {"--field": st.sampled_from(_FIELDS),
                     "--m": st.integers(-1, 14).map(str),
                     "--order": st.integers(-1, 14).map(str),
                     "--lattice": _LATTICES, "--a": _LATTICES,
                     "--b": _LATTICES,
                     "--place": _places("s" if surface else "t"),
                     "--z": _PARAMETERS,
                     "function": _expressions(("s", "t") if surface
                                              else ("t",))}
           for surface in (False, True)}


@st.composite
def _command_lines(draw):
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    options = [action for action in _SUBCOMMANDS[name]._actions
               if action.option_strings[-1] != "--help"]
    surface = any(action.option_strings[-1] == "--z" for action in options)
    argv = [name]
    for action in options:
        flag = action.option_strings[-1]
        if not (action.required or draw(st.booleans())):
            continue
        argv.append(flag)
        if action.choices:
            argv.append(draw(st.sampled_from(sorted(action.choices))))
        elif action.nargs != 0:
            values = _VALUES[surface]
            argv.append(draw(values.get(flag, values["function"])))
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_command_lines())
def test_generated_command_lines_exit_cleanly_and_quickly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 2.0, argv
    assert code in (0, 2, 3, 4), (argv, out.getvalue(), err.getvalue())
