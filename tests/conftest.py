import re
from fractions import Fraction

import pytest

from geoformal.exterior import FrameMetric, Multivector
from geoformal.invariant import aloff_wallach, flag_su3, su4_su2
from geoformal.ring import build_table, builtin_presentation


def blade(n, indices):
    """The blade e^{i_1} ^ ... ^ e^{i_k} over R^n from 0-based indices in any
    order, signed by the sort; a repeated index gives zero."""
    mask = 0
    sign = 1
    for i in indices:
        bit = 1 << i
        if mask & bit:
            return Multivector.zero(n)
        # insertion sign: parity of already-present indices above i
        if (mask >> (i + 1)).bit_count() & 1:
            sign = -sign
        mask |= bit
    return Multivector(n, {mask: sign})


def euclidean(n):
    """The identity coframe metric on R^n."""
    return FrameMetric.diagonal([1] * n)


_FORM_TERM = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)?\s*(e\d+(?:\^e\d+)*)")


def _parse_form(text, n):
    """Exact form from a sum of `c eI^eJ` terms with 1-based frame indices."""
    form = Multivector.zero(n)
    pos = 0
    while pos < len(text):
        term = _FORM_TERM.match(text, pos)
        assert term, f"cannot parse {text[pos:]!r} in {text!r}"
        sign, coeff, name = term.groups()
        c = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
        idx = tuple(int(e[1:]) - 1 for e in name.split("^"))
        form = form + blade(n, idx).scale(c)
        pos = term.end()
    return form


@pytest.fixture(scope="session")
def parse_form():
    """Parser for the witness forms the emitter attaches, as `c eI^eJ` sums."""
    return _parse_form


@pytest.fixture(scope="session")
def aw11():
    return aloff_wallach(1, 1)


@pytest.fixture(scope="session")
def flag():
    return flag_su3()


@pytest.fixture(scope="session")
def sphere_product():
    # SU(4)/SU(2): the expensive space; built once per session
    return su4_su2()


@pytest.fixture(scope="session")
def ex1_table():
    return build_table(builtin_presentation("eschenburg-ex1"))


@pytest.fixture(scope="session")
def ex2_table():
    return build_table(builtin_presentation("eschenburg-ex2"))
