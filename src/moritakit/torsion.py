"""Torsion theory and localization attached to a two-sided ideal.

The generating ideal I is first stabilized: the power chain I, I^2, ...
stops shrinking at an idempotent ideal Iinf, and the torsion class is the
modules killed by Iinf.  Everything downstream (torsion submodule, the
closedness map alpha, the localization Hom(Iinf, X / torsion)) is phrased
against Iinf.  The left action on Hom_R(Iinf, X) is (r.f)(a) = f(a.r);
the other convention would make alpha fail to be a module map.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .algebra import Algebra, Ideal, ideal_product, stabilize_ideal
from .exactlin import Basis, Matrix, _dot_products, closure, kernel_basis, unit_vector
from .modules import (
    DEFAULT_ENUM_BUDGET,
    Bimodule,
    HomBasis,
    LeftModule,
    Submodule,
    _memoized,
    annihilator,
    hom_space,
    hom_structure,
    ideal_action_image,
    quotient_module,
    regular_bimodule,
    submodule_supply,
)

DEFAULT_ORACLE_SAMPLES = 256


class TorsionTheory:
    """An ideal, its idempotent stabilization, and the resulting operators.

    exponent is the least n with I^n = I^(n+1); exponent 1 means the
    generating ideal was already idempotent and the torsion class is
    closed under extensions without passing to the stabilization.

    from_ideal checks that the stabilization is idempotent once per
    theory: at exponent 1 stabilize_ideal's stop test has compared I.I
    with I, or I is the whole algebra, which holds 1.1, so only a higher
    exponent forms Iinf.Iinf.  The bimodule actions are read off the
    algebra's cached multiplication matrices: at Iinf = R they are those
    matrices (regular_bimodule), since the full space's canonical basis
    is the standard one; at a proper Iinf they are the products with
    Iinf's basis, in its coordinates.
    """

    __slots__ = ("algebra", "ideal", "stable_ideal", "exponent", "_bim")

    def __init__(self, algebra: Algebra, ideal: Ideal, stable_ideal: Ideal, exponent: int):
        self.algebra = algebra
        self.ideal = ideal
        self.stable_ideal = stable_ideal
        self.exponent = exponent
        if stable_ideal.dim == algebra.dim:
            self._bim = regular_bimodule(algebra)
        else:
            f, vecs = algebra.field, stable_ideal.basis
            broken = "stabilized ideal is not two-sided stable"
            left, right = ([vecs.coords_matrix(_dot_products(f, vecs.vectors, m.entries), broken)
                            for m in mats]
                           for mats in (algebra._basis_left_mats(), algebra._basis_right_mats()))
            self._bim = Bimodule(algebra, algebra, vecs.dim, left, right)

    @classmethod
    def from_ideal(cls, algebra: Algebra, ideal: Ideal) -> "TorsionTheory":
        if ideal.algebra != algebra:
            raise ValueError("ideal over a different algebra")
        stable, exponent = stabilize_ideal(algebra, ideal)
        theory = cls(algebra, ideal, stable, exponent)
        # the stabilization must be idempotent or nothing downstream holds
        if exponent > 1 and ideal_product(algebra, stable, stable) != stable:
            raise AssertionError("stabilized ideal is not idempotent")
        return theory

    @property
    def ideal_bimodule(self) -> Bimodule:
        return self._bim

    def __repr__(self) -> str:
        return (f"TorsionTheory(ideal dim {self.ideal.dim} -> stable dim "
                f"{self.stable_ideal.dim}, exponent {self.exponent})")


def torsion_submodule(tt: TorsionTheory, x: LeftModule) -> Submodule:
    """The largest submodule killed by the stabilized ideal."""
    if x.algebra != tt.algebra:
        raise ValueError("module is over the wrong algebra")
    return annihilator(x, tt.stable_ideal.basis.vectors)


def is_torsion_free(tt: TorsionTheory, x: LeftModule) -> bool:
    return torsion_submodule(tt, x).basis.dim == 0


def is_torsion(tt: TorsionTheory, x: LeftModule) -> bool:
    return torsion_submodule(tt, x).basis.dim == x.dim


class ClosednessResult:
    """Verdict plus the witness matrix of alpha: X -> Hom_R(Iinf, X), in
    the coordinates of hom; the module structure on hom is left to the
    callers that need it (hom_structure)."""

    __slots__ = ("closed", "alpha", "hom")

    def __init__(self, closed: bool, alpha: Matrix, hom: HomBasis):
        self.closed = closed
        self.alpha = alpha
        self.hom = hom

    def __bool__(self) -> bool:
        return self.closed


@_memoized
def closedness_map(tt: TorsionTheory, x: LeftModule) -> ClosednessResult:
    """alpha(x)(a) = a.x; X is closed exactly when alpha is invertible.
    Only the space Hom_R(Iinf, X) is solved for, not its module structure.

    When Iinf is the whole algebra R nothing is solved: f |-> f(1)
    inverts alpha, since f(a) = a.f(1), so Hom_R(R, X) is the span of
    alpha's columns, whose canonical basis is the one the solve gives."""
    if x.algebra != tt.algebra:
        raise ValueError("module is over the wrong algebra")
    f = tt.algebra.field
    source = tt.ideal_bimodule.left_module()
    acts = [x.action_of(v) for v in tt.stable_ideal.basis.vectors]
    # column k is the map a |-> a.x_k
    cols = [Matrix.from_cols(f, [act.col(k) for act in acts], rows=x.dim) for k in range(x.dim)]
    if tt.stable_ideal.dim == tt.algebra.dim:
        h = HomBasis(source, x, Basis.span(f, x.dim * source.dim, [HomBasis.vectorize(c) for c in cols]))
    else:
        h = hom_space(source, x)
    alpha = h.coords_matrix(cols, "alpha image escaped Hom_R(Iinf, X)")
    return ClosednessResult(alpha.is_invertible(), alpha, h)


def is_closed(tt: TorsionTheory, x: LeftModule) -> bool:
    """Is alpha: X -> Hom_R(Iinf, X) invertible?  At Iinf = R every X is
    closed, since f |-> f(1) inverts alpha (closedness_map), so nothing
    is computed; closedness_map still builds alpha and Hom_R(R, X) there
    for localize, which reads them."""
    if x.algebra != tt.algebra:
        raise ValueError("module is over the wrong algebra")
    if tt.stable_ideal.dim == tt.algebra.dim:
        return True
    return closedness_map(tt, x).closed


class Localization(NamedTuple):
    module: LeftModule
    canonical: Matrix  # module.dim x X.dim
    torsion: Submodule
    hom: HomBasis


@_memoized
def localize(tt: TorsionTheory, x: LeftModule) -> Localization:
    """Hom_R(Iinf, X / torsion) with the canonical map x |-> (a |-> a.x̄):
    the module structure is put on closedness_map's hom space, which is
    solved once.

    The construction's contract is asserted, not trusted: the result is
    closed, the canonical map's kernel is exactly the torsion submodule,
    and its cokernel is torsion.
    """
    t = torsion_submodule(tt, x)
    quo, proj = t.quotient()
    res = closedness_map(tt, quo)
    canonical = res.alpha @ proj
    loc = hom_structure(tt.ideal_bimodule, res.hom)

    if not is_closed(tt, loc):
        raise AssertionError("localization produced a non-closed module")
    if kernel_basis(canonical) != t.basis:
        raise AssertionError("canonical map kernel is not the torsion submodule")
    image = Basis.span(tt.algebra.field, loc.dim, canonical.columns())
    coker, _ = quotient_module(loc, closure(image, [act.apply for act in loc.action]))
    if not is_torsion(tt, coker):
        raise AssertionError("localization cokernel is not torsion")
    return Localization(loc, canonical, t, res.hom)


class OracleVerdict:
    """Extension-oracle outcome; exhaustive is False when the submodule
    supply was sampled instead of enumerated."""

    __slots__ = ("verdict", "exhaustive", "failures")

    def __init__(self, verdict: bool, exhaustive: bool, failures: tuple):
        self.verdict = verdict
        self.exhaustive = exhaustive
        self.failures = failures

    def __bool__(self) -> bool:
        return self.verdict


def rel_injective_oracle(tt: TorsionTheory, target: LeftModule, ambient: LeftModule,
                         samples: int = DEFAULT_ORACLE_SAMPLES) -> OracleVerdict:
    """Does every map into target from a dense submodule of ambient extend?

    The submodules of ambient are enumerated up to DEFAULT_ENUM_BUDGET, else
    `samples` are drawn from seed 0.  A submodule qualifies when the quotient
    by it is torsion.  For each qualifying submodule the restriction map
    Hom(ambient, target) -> Hom(submodule, target) must be onto; a failure
    records the submodule and a map with no extension.
    """
    if target.algebra != tt.algebra or ambient.algebra != tt.algebra:
        raise ValueError("oracle modules are over the wrong algebra")
    subs, exhaustive = submodule_supply(ambient, DEFAULT_ENUM_BUDGET, samples, 0)
    hom_amb = hom_space(ambient, target)
    failures = []
    for sub in subs:
        quo, _ = sub.quotient()
        if not is_torsion(tt, quo):
            continue
        sub_mod = sub.as_module()
        hom_sub = hom_space(sub_mod, target)
        if hom_sub.dim == 0:
            continue
        incl = sub.basis.matrix_cols()
        restriction = hom_sub.coords_matrix((beta @ incl for beta in hom_amb.matrices),
                                            "restriction left the hom space")
        missed = _vector_outside_column_span(restriction)
        if missed is not None:
            failures.append((sub.basis, hom_sub.from_coords(missed)))
    return OracleVerdict(not failures, exhaustive, tuple(failures))


def _vector_outside_column_span(m: Matrix) -> Optional[tuple]:
    span = Basis.span(m.field, m.rows, m.columns())
    if span.dim == m.rows:
        return None
    # any standard vector off the span works; echelon form guarantees one
    for i in range(m.rows):
        e = unit_vector(m.field, m.rows, i)
        if not span.contains_vector(e):
            return e
    raise AssertionError("span claims full rank but no missing vector found")


def ideal_power_chain(tt: TorsionTheory, x: LeftModule) -> list:
    """The descending chain X >= I.X >= I^2.X >= ... until it stabilizes,
    as a list of bases starting with the full space."""
    chain = [Basis.full(tt.algebra.field, x.dim)]
    cur = ideal_action_image(tt.ideal, x).basis
    while cur != chain[-1]:
        chain.append(cur)
        vecs = []
        for v in tt.ideal.basis.vectors:
            act = x.action_of(v)
            vecs.extend(act.apply(w) for w in cur.vectors)
        cur = Basis.span(tt.algebra.field, x.dim, vecs)
    return chain
