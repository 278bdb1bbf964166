"""Manifold specifications: manifest ingestion, the invariant exterior
derivative, and the bidegree splitting d = mu + del + dbar + mubar.

A manifest declares structure equations either for a real coframe e^1..e^2n
together with a (1,0)-coframe (the complex equations are then derived), or
directly for the (1,0)-coframe; when both are present they are
cross-validated.  All downstream forms live in the complexified phi-basis.
Everything is validated at load: d of d vanishes on every generator, d on
every (2n-1)-form, the coframe change of basis is invertible, and fibration
data is consistent.  On [coframe], whose right-hand sides must be real, d^2,
unimodularity and d omega read the declared real structure constants.

A process parses each manifest text once: its section split and each
expression's compiled tree are kept, and a load evaluates the trees under
its own parameters.  d^2 = 0 and unimodularity are certified once per
distinct declared real structure.

Frame vectors are never represented as coordinate vector fields.  Only their
structural role is kept: duality to the coframe, a pure-fiber flag, and the
scalar symbol by which each conjugated frame vector acts on base torus
characters.  The coordinate expressions behind the built-in manifests are
recorded as comments next to the manifest text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .algebra import Form, block_words, leibniz, sort_word, word_bidegree, words_of_degree
from .scalars import (
    I,
    ONE,
    ParseError,
    Scalar,
    ZERO,
    format_scalar,
    parse_scalar,
    parse_text,
    _ScalarParser,
)


class JacobiViolation(ValueError):
    """d of d is nonzero on a coframe element."""

    def __init__(self, index: str, residue: Form, symbol: str, prefix: str = ""):
        self.index = index
        self.residue = residue
        super().__init__(f"{prefix}d^2 {index} = {residue.pretty(symbol)} != 0")


class NotUnimodular(ValueError):
    """d is nonzero on an invariant (2n-1)-form, so the group has no lattice
    and Gram adjoints are not L2 adjoints."""


class NonInvertibleCoframe(ValueError):
    """The declared (1,0)-coframe does not span the complexified coframe."""


BIDEGREE_SHIFTS = {
    "mu": (2, -1),
    "del": (1, 0),
    "dbar": (0, 1),
    "mubar": (-1, 2),
}

CERTIFIED = 32  # declared real structures kept as certified by ``_certify``

# the seven bidegree components of d^2 = 0
D2_RELATIONS = (
    "mu mu",
    "mu del + del mu",
    "del del + mu dbar + dbar mu",
    "del dbar + dbar del + mu mubar + mubar mu",
    "dbar dbar + mubar del + del mubar",
    "mubar dbar + dbar mubar",
    "mubar mubar",
)


@dataclass(frozen=True)
class FibrationData:
    """Base-mode bookkeeping for the torus fibration.

    ``symbols[i]`` lists, per base lattice direction, the scalar by which the
    conjugated frame vector of phi^i acts on the character of that direction;
    pure fiber vectors carry the zero symbol.  ``fiber_span`` certifies which
    frame vectors span the fiber directions (declared, checked only for
    pure-fiber membership).
    """

    rank: int
    coords: tuple
    pure_fiber: dict
    symbols: dict
    fiber_span: tuple

    def sigma(self, i: int, mode) -> Scalar:
        """Symbol of the conjugated frame vector i at an integer mode."""
        total = ZERO
        for s, m in zip(self.symbols[i], mode):
            if m and not s.is_zero():
                total = total + s * Scalar.integer(m)
        return total

    def tau(self, i: int, mode) -> Scalar:
        """Symbol of the unconjugated frame vector i at an integer mode: the
        conjugate of sigma at -mode, as the conjugate character has -mode."""
        return -self.sigma(i, mode).conj()

    def validate(self):
        if len(self.coords) != self.rank:
            raise ParseError("fibration coords must list one label per rank")
        for i in self.fiber_span:
            if not self.pure_fiber.get(i, False):
                raise ParseError(f"fiber_span lists V{i}, which is not pure fiber")


class ManifoldSpec:
    """Validated manifold data: structure equations, coframe, metric source,
    fibration.  ``e_forms`` are the real coframe elements in the phi-basis,
    which ``_coframe_basis`` computes once per load.  Validation errors name
    ``section``, where the manifest wrote the structure equations.  On
    [coframe], ``real_d`` and ``real_omega`` hold the declared {k: d e^k}
    and omega over e^1..e^2n; else both are None."""

    def __init__(
        self,
        name: str,
        n: int,
        params: dict,
        dphi: list,
        e_forms: list,
        metric_source,
        fibration: FibrationData,
        section: str,
        symbol: str = "phi",
        real_d: dict | None = None,
        real_omega: Form | None = None,
    ):
        self.name = name
        self.n = n
        self.params = params
        self.dphi = dphi
        self._e_forms = e_forms
        self.metric_source = metric_source
        self.fibration = fibration
        self.symbol = symbol
        self.section = section
        self.real_d = real_d
        self.real_omega = real_omega
        self._dword_cache: dict = {}
        self._piece_cache: dict = {}
        self._dgen = dict(enumerate(dphi, 1)) | {j + n: f.conj() for j, f in enumerate(dphi, 1)}
        self.validate()

    # -- basic geometry -------------------------------------------------

    def generator(self, a: int) -> Form:
        return Form.monomial(self.n, (a,))

    def d_generator(self, a: int) -> Form:
        """d phi^a for a in 1..2n, the conjugates after phi^1..phi^n."""
        return self._dgen[a]

    def d_word(self, word) -> Form:
        """d of one index word by ``leibniz``: each coefficient is one of d
        phi_{w_t} up to sign, so no scalar is multiplied.  Cached per word."""
        cached = self._dword_cache.get(word)
        if cached is not None:
            return cached
        out = _derive({word: ONE}, {j: self._dgen[j].coeffs for j in word})
        self._dword_cache[word] = Form(self.n, out)
        return self._dword_cache[word]

    def real_closed(self, forms) -> bool:
        """Whether d vanishes on each of ``forms``, {word: coefficient} over
        e^1..e^2n, read on the declared ``real_d``; [coframe] only."""
        return not any(_derive(f, self.real_d) for f in forms)

    def exterior_d(self, alpha: Form) -> Form:
        out = Form.zero(self.n)
        for w, c in alpha.coeffs.items():
            out = out + self.d_word(w).scale(c)
        return out

    def op_apply(self, which: str, alpha: Form) -> Form:
        """One bidegree component of d applied to a form."""
        dp, dq = BIDEGREE_SHIFTS[which]
        out = Form.zero(self.n)
        for w, c in alpha.coeffs.items():
            p, q = word_bidegree(w, self.n)
            out = out + self.d_word(w).component(p + dp, q + dq).scale(c)
        return out

    def block_words(self, p: int, q: int):
        """Sorted index words of bidegree (p, q); empty outside the range."""
        return block_words(self.n, p, q)

    def piece_matrix(self, pq, which: str):
        """The matrix of one piece of d from block pq to block pq + shift,
        rows and columns in ``block_words`` order, or None when either block
        is empty.  Cached per block and piece."""
        key = (pq, which)
        if key not in self._piece_cache:
            (p, q), (dp, dq) = pq, BIDEGREE_SHIFTS[which]
            cols = [self.d_word(w).coeffs for w in self.block_words(p, q)]
            rows = self.block_words(p + dp, q + dq)
            matrix = [[c.get(u, ZERO) for c in cols] for u in rows]
            self._piece_cache[key] = matrix if cols and rows else None
        return self._piece_cache[key]

    def is_integrable(self) -> bool:
        """mu and mubar vanish on the generators: no d phi^j has a (0,2)
        part, nor, its conjugate, d conj phi^j a (2,0) part."""
        return all(word_bidegree(w, self.n)[0] for f in self.dphi for w in f.coeffs)

    # -- validation -------------------------------------------------------

    def validate(self):
        """Each d phi^j is a 2-form, d^2 vanishes on the generators, d on
        every (2n-1)-form, and the fibration data is consistent.  On
        [coframe] the middle two are certified once per distinct declared
        real structure (``_certify``, on the e-words).  Without a
        certificate both are checked here, d on the phi-words, which span
        the same forms and so decide and name a failure."""
        n = self.n
        for j in range(1, n + 1):
            if any(len(w) != 2 for w in self.dphi[j - 1].coeffs):
                raise ParseError(f"d phi{j} is not a 2-form")
        if not self._certified():
            self.check_d2_relations()
            for w in words_of_degree(n, 2 * n - 1):
                residue = self.d_word(w)
                if not residue.is_zero():
                    raise NotUnimodular(
                        f"[{self.section}]: the structure equations are not unimodular: "
                        f"d {Form.monomial(n, w).pretty(self.symbol)} = "
                        f"{residue.pretty(self.symbol)} != 0, so no compact quotient exists"
                    )
        self.fibration.validate()

    def _certified(self) -> bool:
        """Whether d^2 = 0 and unimodularity hold on the declared real
        structure constants, by this load or an earlier one; False on
        [complex_coframe] and on a failure, which the full checks name."""
        if self.real_d is None:
            return False
        key = tuple((k, tuple(sorted(f.items()))) for k, f in sorted(self.real_d.items()))
        try:
            _certify(self.n, key)
        except _Uncertified:
            return False
        return True

    def check_d2_relations(self):
        """d^2 = 0 on the generators, hence all seven bidegree components of
        d^2 = 0 (``D2_RELATIONS``) on every invariant form: each component
        is a derivation, as d is one, and d^2 on a generator is the sum of
        their values there, one per bidegree.  On [coframe] d^2 is evaluated
        on the declared e^1..e^2n, which span the same forms as the phi^a,
        and a nonzero residue is rewritten in the phi-basis; otherwise on
        phi^1..phi^n, as d^2 conj phi^a is the conjugate of d^2 phi^a.  A
        nonzero d^2 raises JacobiViolation, named by the first e^k on
        [coframe], else the first phi^a."""
        n = self.n
        if self.real_d is not None:
            for k, f in sorted(self.real_d.items()):
                residue = _derive(f, self.real_d)
                if residue:
                    residue = substitute(self._e_forms, Form(n, residue))
                    raise JacobiViolation(f"e{k}", residue, self.symbol)
            return
        for a in range(1, n + 1):
            residue = self.exterior_d(self._dgen[a])
            if not residue.is_zero():
                raise JacobiViolation(f"phi{a}", residue, self.symbol, f"[{self.section}]: ")


class _Uncertified(Exception):
    """A declared real structure fails d^2 = 0 or unimodularity."""


@lru_cache(maxsize=CERTIFIED)
def _certify(n: int, real_d: tuple) -> None:
    """Return when d^2 = 0 and d on every (2n-1)-form vanish on the real
    structure constants ``real_d`` = ((k, ((word, c), ...)), ...) of d e^k;
    raise _Uncertified otherwise, so that only successes are kept."""
    images = {k: dict(f) for k, f in real_d}
    if any(_derive(f, images) for f in images.values()) or any(
        _derive({w: ONE}, images) for w in words_of_degree(n, 2 * n - 1)
    ):
        raise _Uncertified


# ---------------------------------------------------------------------------
# Manifest parsing
# ---------------------------------------------------------------------------

DOCUMENTS = 16  # manifest texts whose section split is kept
_SECTION_RE = re.compile(r"^\[([a-z_]+)\]$")
_COFRAME_RE = re.compile(r"^d\s+e(\d+)\s*=\s*(.+)$")
_CPLX_RE = re.compile(r"^d\s+phi(\d+)\s*=\s*(.+)$")
_ACS_RE = re.compile(r"^phi(\d+)\s*=\s*(.+)$")
_ASSIGN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_VECTOR_RE = re.compile(r"^V(\d+)\s*:\s*(.+)$")


class _FormParser(_ScalarParser):
    """The scalar grammar over scalars and forms.

    ``mode`` selects the admissible form atoms: real coframe monomials like
    ``e13`` or (1,0)-coframe monomials like ``phi12`` / ``phi[1 2b]``.
    """

    def __init__(self, tokens, names, lineno, n, mode):
        super().__init__(tokens, names, lineno)
        self.n = n
        self.mode = mode

    def combine(self, a, op, b):
        if isinstance(a, Scalar) and not isinstance(b, Form):
            return super().combine(a, op, b)
        if op == "^":
            raise ParseError("exponent applied to a form", self.lineno)
        if op in "+-":
            fa, fb = self._as_form(a), self._as_form(b)
            return fa + fb if op == "+" else fa - fb
        if op == "*":
            if isinstance(a, Scalar):
                return b.scale(a)
            if isinstance(b, Scalar):
                return a.scale(b)
            return a.wedge(b)
        if not isinstance(b, Scalar):
            raise ParseError("division by a form", self.lineno)
        return a.scale(super().combine(ONE, "/", b))

    def _as_form(self, v):
        if isinstance(v, Form):
            return v
        if v.is_zero():
            return Form.zero(self.n)
        raise ParseError("scalar used where a form is required", self.lineno)

    def atom(self):
        kind, val = self.peek()
        if kind == "name":
            if self.mode == "e" and re.fullmatch(r"e\d+", val):
                self.take()
                return self._monomial([int(ch) for ch in val[1:]], 2 * self.n)
            if self.mode == "phi" and val == "phi" and self._next_is_bracket():
                self.take()
                return self._phi_bracket()
            if self.mode == "phi" and re.fullmatch(r"phi\d+", val):
                self.take()
                return self._monomial([int(ch) for ch in val[3:]], self.n)
        return super().atom()

    def _next_is_bracket(self):
        if self.pos + 1 < len(self.tokens):
            kind, val = self.tokens[self.pos + 1]
            return kind == "op" and val == "["
        return False

    def _phi_bracket(self):
        self.expect_op("[")
        indices = []
        barred = set()
        while True:
            kind, val = self.take()
            if kind == "op" and val == "]":
                return self._monomial(indices, self.n, barred)
            if kind == "op" and val == ",":
                continue
            if kind != "int":
                raise ParseError(f"bad index {val!r} in phi[...]", self.lineno)
            if self.peek() == ("name", "b"):
                self.take()
                barred.add(len(indices))
            indices.append(int(val))

    def _monomial(self, indices, top, barred=()):
        """The signed monomial of coframe indices in 1..top; the positions
        in ``barred`` are conjugated (shifted by n)."""
        for j in indices:
            if not 1 <= j <= top:
                raise ParseError(f"coframe index {j} out of range", self.lineno)
        sorted_ = sort_word([j + self.n if k in barred else j for k, j in enumerate(indices)])
        if sorted_ is None:
            return Form.zero(self.n)
        sign, word = sorted_
        return Form.monomial(self.n, word, ONE if sign > 0 else -ONE)


def _parse_form_expr(text, params, n, mode, lineno):
    value = parse_text((_FormParser, n, mode), text, params, lineno)
    if isinstance(value, Scalar):
        if value.is_zero():
            return Form.zero(n)
        raise ParseError("expected a form, got a nonzero scalar", lineno)
    return value


def _parse_list(text, params, lineno, item: str):
    """Parse ``[entry, ...]``; ``item`` names the rule of one entry."""
    return parse_text((_ScalarParser,), text, params, lineno, f"[{item}]")


@lru_cache(maxsize=DOCUMENTS)
def _sections(document: str) -> tuple:
    """((section, ((lineno, line), ...)), ...) of a manifest, without
    comments and blank lines; a repeated header continues its section.
    Kept per document text."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ParseError(f"content before any [section]: {line!r}", lineno)
        sections[current].append((lineno, line))
    return tuple((name, tuple(lines)) for name, lines in sections.items())


def load_spec(document: str, overrides: dict | None = None) -> ManifoldSpec:
    """Parse and validate a manifest; ``overrides`` rebinds [params] entries
    (values may be scalar expression strings or Scalars)."""
    sections = dict(_sections(document))
    if not sections:
        raise ParseError("empty manifest")
    if "manifold" not in sections:
        raise ParseError("missing [manifold] section")

    given: dict = {}
    for lineno, line in sections["manifold"]:
        m = _ASSIGN_RE.match(line)
        if not m:
            raise ParseError(f"bad [manifold] line: {line!r}", lineno)
        key, value = m.group(1), m.group(2).strip()
        if key not in ("name", "dim", "symbol"):
            raise ParseError(f"unknown [manifold] key {key!r}", lineno)
        if key in given:
            raise ParseError(f"[manifold] {key} is given twice", lineno)
        given[key] = _integer(key, value, lineno) if key == "dim" else value
    name, dim, symbol = given.get("name"), given.get("dim"), given.get("symbol", "phi")
    if name is None or dim is None:
        raise ParseError("[manifold] must set name and dim")
    if dim % 2 != 0 or not 2 <= dim <= 8:
        raise ParseError("dim must be an even integer between 2 and 8")
    n = dim // 2

    params: dict = {}
    for lineno, line in sections.get("params", []):
        m = _ASSIGN_RE.match(line)
        if not m:
            raise ParseError(f"bad [params] line: {line!r}", lineno)
        if m.group(1) in params:
            raise ParseError(f"parameter {m.group(1)} is given twice", lineno)
        params[m.group(1)] = parse_scalar(m.group(2), params, lineno)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ParseError(f"override for unknown parameter {key!r}")
        if not isinstance(value, Scalar):
            try:
                value = parse_scalar(value, params)
            except ParseError as exc:
                raise ParseError(f"override {key} = {value}: {exc}") from exc
        params[key] = value

    de: dict = {}
    for lineno, line in sections.get("coframe", []):
        m = _COFRAME_RE.match(line)
        if not m:
            raise ParseError(f"bad [coframe] line: {line!r}", lineno)
        k = int(m.group(1))
        if not 1 <= k <= 2 * n:
            raise ParseError(f"coframe index {k} out of range", lineno)
        if k in de:
            raise ParseError(f"d e{k} is given twice", lineno)
        de[k] = _parse_form_expr(m.group(2), params, n, "e", lineno)
        if any(not c.is_real() for c in de[k].coeffs.values()):
            raise ParseError(f"d e{k} is not a real form", lineno)
    if de and len(de) != 2 * n:
        raise ParseError("[coframe] must give d e for every coframe index")

    acs_rows: dict = {}
    for lineno, line in sections.get("acs", []):
        m = _ACS_RE.match(line)
        if not m:
            raise ParseError(f"bad [acs] line: {line!r}", lineno)
        j = int(m.group(1))
        if not 1 <= j <= n:
            raise ParseError(f"phi index {j} out of range", lineno)
        if j in acs_rows:
            raise ParseError(f"phi{j} is given twice", lineno)
        acs_rows[j] = _parse_form_expr(m.group(2), params, n, "e", lineno)
    if acs_rows and len(acs_rows) != n:
        raise ParseError("[acs] must define phi1..phin")

    declared_dphi: dict = {}
    for lineno, line in sections.get("complex_coframe", []):
        m = _CPLX_RE.match(line)
        if not m:
            raise ParseError(f"bad [complex_coframe] line: {line!r}", lineno)
        j = int(m.group(1))
        if not 1 <= j <= n:
            raise ParseError(f"phi index {j} out of range", lineno)
        if j in declared_dphi:
            raise ParseError(f"d phi{j} is given twice", lineno)
        declared_dphi[j] = _parse_form_expr(m.group(2), params, n, "phi", lineno)
    if declared_dphi and len(declared_dphi) != n:
        raise ParseError("[complex_coframe] must give d phi for every index")

    real_route = bool(de) and bool(acs_rows)
    if bool(de) != bool(acs_rows):
        raise ParseError("[coframe] and [acs] must be given together")
    if not real_route and not declared_dphi:
        raise ParseError("manifest declares no structure equations")

    if real_route:
        cmatrix = [
            [acs_rows[j].coefficient((k,)) for k in range(1, 2 * n + 1)]
            for j in range(1, n + 1)
        ]
    else:
        cmatrix = linalg.zeros(n, 2 * n)
        for j in range(1, n + 1):
            cmatrix[j - 1][2 * j - 2] = ONE
            cmatrix[j - 1][2 * j - 1] = I
    try:
        e_forms = _coframe_basis(cmatrix)
    except linalg.Singular as exc:
        at = ", ".join(f"{k} = {format_scalar(v)}" for k, v in sorted(params.items()))
        raise NonInvertibleCoframe(
            f"[acs]: phi1..phi{n} and their conjugates do not span the "
            f"complexified coframe ({exc})" + (f" at {at}" if at else "")
        ) from exc
    if real_route:
        dphi = substitute_rows(cmatrix, de, e_forms)
        for j in sorted(declared_dphi):
            if not (dphi[j - 1] - declared_dphi[j]).is_zero():
                raise ParseError(
                    f"declared d phi{j} disagrees with the real coframe derivation"
                )
    else:
        dphi = [declared_dphi[j] for j in range(1, n + 1)]

    metric_source = real_omega = None
    for lineno, line in sections.get("metric", []):
        m = _ASSIGN_RE.match(line)
        if not m:
            raise ParseError(f"bad [metric] line: {line!r}", lineno)
        key, value = m.group(1), m.group(2)
        if metric_source is not None and key in ("omega", "gram"):
            raise ParseError("[metric] declares a second metric", lineno)
        if key == "omega":
            omega = _parse_form_expr(value, params, n, "e", lineno)
            metric_source = ("omega", substitute(e_forms, omega))
            real_omega = omega if de else None
        elif key == "gram":
            h = _parse_list(value, params, lineno, "[expr]")
            if len(h) != n or any(len(r) != n for r in h):
                raise ParseError(f"gram must be {n}x{n}", lineno)
            metric_source = ("gram", h)
        else:
            raise ParseError(f"unknown [metric] key {key!r}", lineno)

    fibration = _parse_fibration(sections.get("fibration", []), params, n)
    section = "coframe" if real_route else "complex_coframe"
    args = (name, n, params, dphi, e_forms, metric_source, fibration, section, symbol)
    return ManifoldSpec(*args, {k: f.coeffs for k, f in de.items()} or None, real_omega)


def _coframe_basis(cmatrix):
    """The e^k as forms in the phi-basis, for a (1,0)-coframe given by its
    rows over e^1..e^2n: the rows of the inverse of the matrix of the phi^j
    and their conjugates."""
    n = len(cmatrix)
    phi = [list(row) for row in cmatrix] + [[c.conj() for c in row] for row in cmatrix]
    return [
        Form(n, {(a + 1,): c for a, c in enumerate(row) if not c.is_zero()})
        for row in linalg.inverse(phi)
    ]


def substitute_rows(rows, forms: dict, images) -> list:
    """sum_k row[k] forms[k + 1] for each row, rewritten once by
    ``substitute``: d phi^j from the real structure equations and the acs
    rows, or the structure equations in another (1,0)-coframe."""
    out = []
    for row in rows:
        total = Form.zero(len(rows))
        for k, c in enumerate(row, start=1):
            if not c.is_zero():
                total = total + forms[k].scale(c)
        out.append(substitute(images, total))
    return out


def _derive(alpha: dict, images) -> dict:
    """D alpha by ``leibniz`` for D(generator j) = ``images[j]``."""
    out: dict = {}
    for word, a in alpha.items():
        for w, sign, c in leibniz(word, images):
            c = c if a is ONE else c * a
            s = out.pop(w, ZERO) + (c if sign > 0 else -c)
            if not s.is_zero():
                out[w] = s
    return out


def substitute(images, alpha: Form) -> Form:
    """alpha with each index k of its words replaced by the one-form
    ``images[k - 1]``: a form over the real coframe into the phi-basis, or
    a phi-form into another (1,0)-coframe and its conjugate."""
    n = len(images) // 2
    out = Form.zero(n)
    for word, c in alpha.coeffs.items():
        term = Form.scalar(n, c)
        for k in word:
            term = term.wedge(images[k - 1])
        out = out + term
    return out


def _integer(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {value!r}", lineno) from None


def _parse_fibration(lines, params, n) -> FibrationData:
    rank = 0
    coords: tuple = ()
    pure_fiber = {i: False for i in range(1, n + 1)}
    symbols: dict = {}
    symbol_lines: dict = {}
    fiber_span: tuple = ()
    seen = set()
    vectors = set()
    for lineno, line in lines:
        vm = _VECTOR_RE.match(line)
        if vm:
            i = int(vm.group(1))
            if not 1 <= i <= n:
                raise ParseError(f"frame index V{i} out of range", lineno)
            if i in vectors:
                raise ParseError(f"V{i} is given twice", lineno)
            vectors.add(i)
            body = vm.group(2).strip()
            if body == "fiber":
                pure_fiber[i] = True
            elif body.startswith("base"):
                rest = body[len("base") :].strip()
                if rest.startswith(","):
                    rest = rest[1:].strip()
                m = _ASSIGN_RE.match(rest)
                if not m or m.group(1) != "symbol":
                    raise ParseError(f"expected 'symbol = [...]' in {line!r}", lineno)
                symbols[i] = tuple(_parse_list(m.group(2), params, lineno, "expr"))
                symbol_lines[i] = lineno
            else:
                raise ParseError(f"bad vector kind in {line!r}", lineno)
            continue
        m = _ASSIGN_RE.match(line)
        if not m:
            raise ParseError(f"bad [fibration] line: {line!r}", lineno)
        key, value = m.group(1), m.group(2).strip()
        if key in seen:
            raise ParseError(f"[fibration] {key} is given twice", lineno)
        seen.add(key)
        if key == "rank":
            rank = _integer(key, value, lineno)
            if rank < 0:
                raise ParseError("fibration rank must be nonnegative", lineno)
        elif key == "coords":
            coords = tuple(_parse_list(value, params, lineno, "name"))
        elif key == "fiber_span":
            span = []
            for item in _parse_list(value, params, lineno, "name"):
                if not re.fullmatch(r"V\d+", item):
                    raise ParseError(f"bad fiber_span entry {item!r}", lineno)
                span.append(int(item[1:]))
            fiber_span = tuple(span)
        else:
            raise ParseError(f"unknown [fibration] key {key!r}", lineno)
    for i, lineno in symbol_lines.items():
        if len(symbols[i]) != rank:
            raise ParseError(f"V{i}: symbol must list {rank} scalars", lineno)
    return FibrationData(
        rank=rank,
        coords=coords,
        pure_fiber=pure_fiber,
        symbols={i: symbols.get(i, (ZERO,) * rank) for i in range(1, n + 1)},
        fiber_span=fiber_span,
    )
