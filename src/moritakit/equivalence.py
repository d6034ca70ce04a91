"""Verification engine: runs the equivalence statements over module catalogs.

A Catalog is a finite list of modules over one algebra, one representative
per isomorphism class when built exhaustively.  Each verify_* function
walks the catalogs, records one Verdict per check with enough witness
material to re-verify it independently, and never raises on a failed
check: failures are verdicts, precondition breaks are failing verdicts
naming the reason.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .algebra import Algebra, Ideal
from .context import (
    MoritaContext,
    NaturalMap,
    eta_map,
    evaluation_counit,
    reverse_context,
    rho_map,
    trace_ideals,
)
from .exactlin import Basis, Matrix, points_fit, random_scalar
from .modules import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_LATTICE_BUDGET,
    BudgetExceeded,
    LeftModule,
    _memo_scope,
    _projective_points,
    annihilator,
    direct_sum,
    extension_space,
    hom_module,
    hom_space,
    ideal_action_image,
    is_isomorphic,
    is_simple,
    iso_invariant,
    middle_term,
    quotient_module,
    regular_module,
    submodule_supply,
    sum_invariant,
    tensor_over,
)
from .torsion import (
    OracleVerdict,
    TorsionTheory,
    is_closed,
    localize,
)

DEFAULT_CATALOG_SAMPLES = 64
DEFAULT_NATURALITY_SAMPLES = 40


class Catalog:
    __slots__ = ("algebra", "modules", "provenance")

    def __init__(self, algebra: Algebra, modules: tuple, provenance: str):
        for m in modules:
            if m.algebra != algebra:
                raise ValueError("catalog member over the wrong algebra")
        self.algebra = algebra
        self.modules = tuple(modules)
        self.provenance = provenance

    @property
    def exhaustive(self) -> bool:
        return self.provenance.startswith("exhaustive")

    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self):
        return iter(self.modules)

    def __repr__(self) -> str:
        return f"Catalog({len(self.modules)} modules, {self.provenance})"


class Verdict(NamedTuple):
    subject: str
    check: str
    passed: bool
    witness: Optional[Matrix] = None
    note: str = ""


class Report:
    """Append-only list of verdicts under a named statement.  passed means
    every verdict passed; sampling shows in flags and sampled, and whether
    a sampled run still passes is the caller's policy (--strict-sampling)."""

    __slots__ = ("statement", "verdicts", "flags")

    def __init__(self, statement: str):
        self.statement = statement
        self.verdicts = []
        self.flags = []

    def record(self, subject: str, check: str, passed: bool,
               witness: Optional[Matrix] = None, note: str = "") -> None:
        self.verdicts.append(Verdict(subject, check, passed, witness, note))

    def record_round_trip(self, subject: str, check: str, iso, note: str = "") -> None:
        """Record a round-trip iso search, run from its default seed 0.  A
        sampled miss disproves nothing, so it is flagged and noted.  The
        witness is read first, so found is read off it: the walk alone,
        with no Hom-dimension proof and no draw."""
        witness = iso.map_
        if not iso.found and not iso.exhaustive:
            self.flag("sampled iso search (seed 0)")
            note = "; ".join(filter(None, (note, "sampled search (seed 0)")))
        self.record(subject, check, iso.found, witness=witness, note=note)

    def flag(self, text: str) -> None:
        if text not in self.flags:
            self.flags.append(text)

    def flag_sampled_catalogs(self, *catalogs) -> None:
        for cat in catalogs:
            if not cat.exhaustive:
                self.flag(f"sampled catalog: {cat.provenance}")

    @property
    def sampled(self) -> bool:
        return any(f.startswith("sampled") for f in self.flags)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failures(self) -> list:
        return [v for v in self.verdicts if not v.passed]

    def __repr__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return f"Report({self.statement}: {state}, {len(self.verdicts)} checks)"


def _module_sort_key(m: LeftModule):
    return (m.dim, tuple(tuple(tuple(row) for row in a.entries) for a in m.action))


class _ClassLedger:
    """One representative per isomorphism class, the first of each, in the
    order kept, with its invariant key (keys[i] is that of reps[i]).  A
    candidate is searched only against kept modules with its key, since a
    different key proves non-isomorphism.  A candidate equal to one that a
    search already found isomorphic to a kept module is dropped before it
    is keyed.  Kept modules are not dropped so: a repeat of one is
    searched, since that search may sample and miss.  proven turns False
    when a module is kept although a search against its bucket sampled and
    missed, which proves nothing."""

    __slots__ = ("reps", "keys", "proven", "_buckets", "_repeats", "_is_iso")

    def __init__(self, is_iso):
        self.reps = []
        self.keys = []
        self.proven = True
        self._buckets = {}
        self._repeats = set()
        self._is_iso = is_iso

    def add(self, mod, key_of) -> None:
        """Keep mod unless it is a known repeat or isomorphic to a kept
        module of its key, key_of(mod)."""
        if mod in self._repeats:
            return
        key = key_of(mod)
        bucket = self._buckets.setdefault(key, [])
        proven = True
        for r in bucket:
            res = self._is_iso(r, mod)
            if res.found:
                self._repeats.add(mod)
                return
            proven = proven and res.exhaustive
        bucket.append(mod)
        self.reps.append(mod)
        self.keys.append(key)
        self.proven = self.proven and proven

    def catalog(self, algebra, provenance: str, sort_key) -> Catalog:
        """The representatives sorted by sort_key; provenance is marked sampled
        when a kept class rests on a sampled iso miss (searches from seed 0)."""
        if not self.proven:
            provenance = (provenance[:-1] + "; iso dedup seed=0)" if provenance.startswith("sampled(")
                          else "sampled(iso dedup seed=0)")
        return Catalog(algebra, tuple(sorted(self.reps, key=sort_key)), provenance)


def build_catalog(algebra: Algebra, max_dim: int,
                  budget: int = DEFAULT_LATTICE_BUDGET,
                  allow_sampling: bool = False,
                  seed: int = 0) -> Catalog:
    """One module per isomorphism class of dimension <= max_dim.

    Candidates come in two steps, and each is deduplicated on arrival:
      1. the quotients R/L of dim <= max_dim, in the (dim, RREF) order of
         the submodules L of R;
      2. for each kept class T, in the order kept (classes kept later are
         walked too), and each simple S, in the same order, with
         dim S + dim T <= max_dim: the split extension, direct_sum with the
         earlier-kept class first, then one middle_term per projective
         point of extension_space(S, T).  The simples are the quotients of
         step 1 whose only submodules are 0 and themselves: where the
         points fit the budget, those that each projective point generates
         (is_simple), else by the supply below.

    This is complete, by induction on dimension: a nonzero module M has a
    simple submodule S, which is cyclic and so is isomorphic to a simple
    of step 1; M/S is isomorphic to a kept class T of smaller dim; and in a
    basis through S, M acts as [[rho_S, f], [0, rho_T]] for a derivation f.
    Adding an inner derivation to f and rescaling it by a nonzero scalar
    both give isomorphic middle terms, so the zero class and one point per
    line of a complement of B^1 in Z^1 cover M.

    Deduplication is a _ClassLedger keyed by iso_invariant (dim, rank of
    each basis action, dim End).  Every entry of the key is preserved by
    N = P M P^-1 over the fixed algebra basis, so a different key proves
    non-isomorphism, and the catalog is exactly what comparing against
    every kept module gives.  A split sum is keyed from its summands' kept
    keys (sum_invariant), with two small hom solves.  The build holds one
    functor memo (_memo_scope), so the End solve of a key serves every
    later search against that class, in modules._search_invertible's
    order: dim Hom(kept, new) against dim End(kept), seeded draws, the
    walk.  The representatives are sorted by (dim, action matrices).

    The submodules of a module, or the points of an Ext^1 space, are
    walked when its points fit the budget (exactlin.points_fit).  Past it,
    with allow_sampling the walk takes sample_submodules and an Ext space
    DEFAULT_CATALOG_SAMPLES seeded classes, and the catalog is
    sampled(seed=...); without it BudgetExceeded is raised.  A class kept
    after a sampled iso search missed also marks the catalog sampled.
    """
    with _memo_scope():
        field = algebra.field
        samples = DEFAULT_CATALOG_SAMPLES if allow_sampling else None
        rng = random.Random(seed)
        ledger = _ClassLedger(is_isomorphic)
        exact = True

        def supply(mod: LeftModule) -> list:
            nonlocal exact
            subs, exhaustive = submodule_supply(mod, budget, samples, seed)
            exact = exact and exhaustive
            return subs

        def simple(mod: LeftModule) -> bool:
            return is_simple(mod) if points_fit(field, mod.dim, budget) else len(supply(mod)) == 2

        def classes(e: int):
            nonlocal exact
            if points_fit(field, e, budget):
                return _projective_points(field, e)
            if samples is None:
                raise BudgetExceeded(f"an Ext space of dim {e} exceeds catalog budget {budget}")
            exact = False
            draws = ([random_scalar(field, rng) for _ in range(e)] for _ in range(samples))
            return [c for c in draws if any(c)]

        reg = regular_module(algebra)
        for sub in supply(reg):
            if reg.dim - sub.dim <= max_dim:
                ledger.add(sub.quotient()[0], iso_invariant)
        simples = [(j, s) for j, s in enumerate(ledger.reps) if s.dim > 0 and simple(s)]
        for i, t in enumerate(ledger.reps):  # reps grows while it is walked
            for j, s in simples:
                if t.dim == 0 or s.dim + t.dim > max_dim:
                    continue
                ledger.add(direct_sum(s, t) if j < i else direct_sum(t, s),
                           lambda _: sum_invariant(s, t, ledger.keys[j], ledger.keys[i]))
                ext = extension_space(s, t)
                for coeffs in classes(ext.dim):
                    ledger.add(middle_term(s, t, ext.from_coords(coeffs)), iso_invariant)

        provenance = f"exhaustive-up-to-dim({max_dim})" if exact else f"sampled(seed={seed})"
        return ledger.catalog(algebra, provenance, _module_sort_key)


def user_catalog(algebra: Algebra, modules) -> Catalog:
    return Catalog(algebra, tuple(modules), "user-supplied")


def _check_precondition_strict(ctx: MoritaContext, report: Report) -> bool:
    i, j = trace_ideals(ctx)
    onto_r = _pairing_onto(report, "R", i, ctx.R)
    return _pairing_onto(report, "S", j, ctx.S) and onto_r


def _pairing_onto(report: Report, side: str, ideal: Ideal, algebra: Algebra) -> bool:
    """Whether the trace ideal is the whole algebra, a failure recorded."""
    if ideal.dim < algebra.dim:
        report.record("context", f"pairing into {side} surjective", False,
                      note=f"trace ideal has dim {ideal.dim} < {algebra.dim}")
        return False
    return True


def _eta_naturality_square(e1: NaturalMap, e2: NaturalMap, f: Matrix,
                           eye_outer: Matrix, eye_inner: Matrix) -> bool:
    inner_map = e1.inner.induced_map(e2.inner, eye_inner, f)
    outer_map = e1.outer.induced_map(e2.outer, eye_outer, inner_map)
    return f @ e1.matrix == e2.matrix @ outer_map


def _sample_naturality(report: Report, maps, modules, field, eye_outer, eye_inner,
                       label: str, rng) -> None:
    pairs = [(i, j) for i in range(len(modules)) for j in range(len(modules))]
    rng.shuffle(pairs)
    done = 0
    for i, j in pairs:
        if done >= DEFAULT_NATURALITY_SAMPLES:
            break
        h = hom_space(modules[i], modules[j])
        if h.dim == 0:
            continue
        coeffs = [random_scalar(field, rng) for _ in range(h.dim)]
        if all(field.is_zero(c) for c in coeffs):
            coeffs[rng.randrange(h.dim)] = field.one
        f = h.from_coords(coeffs)
        ok = _eta_naturality_square(maps[i], maps[j], f, eye_outer, eye_inner)
        report.record(f"{label}[{i}]->{label}[{j}]", "naturality square", ok, witness=f)
        done += 1


def verify_strict_equivalence(ctx: MoritaContext, catalog_r: Catalog, catalog_s: Catalog,
                              seed: int = 0) -> Report:
    """Surjective pairings force both composite functors to be naturally
    isomorphic to identities: eta and rho invertible on every catalog
    module, naturality on DEFAULT_NATURALITY_SAMPLES seeded morphisms a side.
    Sampled catalogs are flagged, not failed (Report)."""
    report = Report("strict context equivalence")
    if not _check_precondition_strict(ctx, report):
        return report
    report.flag_sampled_catalogs(catalog_r, catalog_s)
    f = ctx.R.field
    etas = [eta_map(ctx, x) for x in catalog_r]
    rhos = [rho_map(ctx, y) for y in catalog_s]
    for side, cat, maps, unit in (("R", catalog_r, etas, "eta"), ("S", catalog_s, rhos, "rho")):
        for i, (x, em) in enumerate(zip(cat, maps)):
            ok = em.matrix.is_invertible()
            report.record(f"{side}-module[{i}] (dim {x.dim})", f"{unit} invertible", ok,
                          witness=em.matrix)
    rng = random.Random(seed)
    eye_m = Matrix.identity(f, ctx.M.dim)
    eye_n = Matrix.identity(f, ctx.N.dim)
    _sample_naturality(report, etas, list(catalog_r), f, eye_m, eye_n, "R-module", rng)
    _sample_naturality(report, rhos, list(catalog_s), f, eye_n, eye_m, "S-module", rng)
    return report


def hom_functor_to_s(ctx: MoritaContext, x: LeftModule) -> LeftModule:
    """Hom_R(M, X) as a left S-module: (s.f)(m) = f(m.s)."""
    mod, _ = hom_module(ctx.M, x)
    return mod


def hom_functor_to_r(ctx: MoritaContext, y: LeftModule) -> LeftModule:
    """Hom_S(N, Y) as a left R-module."""
    mod, _ = hom_module(ctx.N, y)
    return mod


def context_theories(ctx: MoritaContext) -> tuple:
    i, j = trace_ideals(ctx)
    return TorsionTheory.from_ideal(ctx.R, i), TorsionTheory.from_ideal(ctx.S, j)


def record_trace_ideals(report: Report, subject: str, ctx: MoritaContext) -> tuple:
    """(t_i, t_j, notes): the context_theories of the trace ideals I in R
    and J in S, recorded under subject as passing "trace ideal into R/S"
    verdicts whose notes give each ideal's dim and its stabilization."""
    t_i, t_j = context_theories(ctx)
    j = t_j.ideal
    notes = (f"I = {t_i.ideal.dim}-dim, idempotent (exponent {t_i.exponent})",
             f"J = S (dim {j.dim})" if j.dim == ctx.S.dim
             else f"J = {j.dim}-dim, idempotent (exponent {t_j.exponent})")
    for side, note in zip("RS", notes):
        report.record(subject, f"trace ideal into {side}", True, note=note)
    return t_i, t_j, notes


def _kato_muller_side(report: Report, label: str, modules, theory_here, theory_there,
                      ctx: MoritaContext) -> None:
    # the hom functor out of this side is Hom_R(M, -) of ctx; the one back
    # is the same functor of the reversed context
    rev = reverse_context(ctx)
    for i, x in enumerate(modules):
        subject = f"{label}[{i}] (dim {x.dim})"
        note = ""
        if not is_closed(theory_here, x):
            x = localize(theory_here, x).module
            note = f"localized first, now dim {x.dim}"
        fx = hom_functor_to_s(ctx, x)
        report.record(subject, "image under hom functor is closed",
                      is_closed(theory_there, fx), note=note)
        back = hom_functor_to_s(rev, fx)
        report.record_round_trip(subject, "round trip isomorphic", is_isomorphic(back, x), note)


@_memo_scope()
def verify_kato_muller(ctx: MoritaContext, catalog_r: Catalog, catalog_s: Catalog) -> Report:
    """Quotient-category equivalence through the hom functors.

    Both trace ideals induce torsion theories; on each side, every closed
    catalog module must map to a closed module on the other side and come
    back isomorphic to itself.  Non-closed members are localized first, so
    the check exercises exactly the closed objects.  Sampled catalogs and
    round-trip searches that sampled and missed are flagged (Report).
    """
    report = Report("quotient category equivalence")
    report.flag_sampled_catalogs(catalog_r, catalog_s)
    t_i, t_j, _ = record_trace_ideals(report, "context", ctx)
    _kato_muller_side(report, "R-module", list(catalog_r), t_i, t_j, ctx)
    _kato_muller_side(report, "S-module", list(catalog_s), t_j, t_i, reverse_context(ctx))
    return report


def verify_one_epi(ctx: MoritaContext, catalog_r: Catalog, catalog_s: Catalog) -> Report:
    """When the pairing into R is onto, R-mod embeds in the S-side quotient:
    every R-module is closed, its hom image is closed on the S side, and
    the evaluation counit M (x) Hom_R(M, X) -> X is an isomorphism.
    Sampled catalogs are flagged, not failed (Report)."""
    report = Report("surjective pairing embedding")
    t_i, t_j = context_theories(ctx)
    if not _pairing_onto(report, "R", t_i.ideal, ctx.R):
        return report
    report.flag_sampled_catalogs(catalog_r, catalog_s)
    for idx, x in enumerate(catalog_r):
        subject = f"R-module[{idx}] (dim {x.dim})"
        # the counit carries Hom_R(M, X), the hom functor's image
        cu = evaluation_counit(ctx, x)
        report.record(subject, "closed for the trivial theory", is_closed(t_i, x))
        report.record(subject, "image under hom functor is closed", is_closed(t_j, cu.hom_module))
        ok = cu.matrix.is_invertible()
        report.record(subject, "evaluation counit invertible", ok, witness=cu.matrix)
    return report


def is_I_projective_oracle(tt: TorsionTheory, p_mod: LeftModule, catalog: Catalog) -> OracleVerdict:
    """Does every map from p_mod lift along quotients with ideal-killed
    kernels?  For each catalog module X and submodule K killed by the
    generating ideal, Hom(p_mod, X) -> Hom(p_mod, X/K) must be onto.  The K
    are enumerated up to DEFAULT_ENUM_BUDGET, else DEFAULT_CATALOG_SAMPLES
    from seed 0.  Hom(P, -) is left exact, so the map is onto exactly when its
    kernel Hom(P, K) = Hom(P/IP, K) (a map into K, which I kills, kills IP)
    has dim Hom(P, X) - dim Hom(P, X/K).  The catalog-bounded reference for
    _in_projective_class's tensor criterion, Iinf (x)_R P = P, on
    ideal-full P: the two agree once the catalog holds the middle terms
    of the non-split extensions of P by the torsion simples."""
    f = tt.algebra.field
    top = ideal_action_image(tt.ideal, p_mod).quotient()[0]
    exhaustive = True
    failures = []
    for x in catalog:
        if x.algebra != tt.algebra:
            raise ValueError("catalog module over the wrong algebra")
        ann = annihilator(x, tt.ideal.basis.vectors)
        subs, complete = submodule_supply(ann.as_module(), DEFAULT_ENUM_BUDGET, DEFAULT_CATALOG_SAMPLES, 0)
        exhaustive = exhaustive and complete
        hom_px = hom_space(p_mod, x).dim
        for sub in subs:
            k_basis = Basis.span(f, x.dim, [ann.basis.from_coords(v) for v in sub.basis.vectors])
            hom_pq = hom_space(p_mod, quotient_module(x, k_basis)[0]).dim
            if hom_pq and hom_px - hom_space(top, sub.as_module()).dim != hom_pq:
                failures.append((x, k_basis))
    return OracleVerdict(not failures, exhaustive, tuple(failures))


def _in_projective_class(tt: TorsionTheory, p: LeftModule) -> bool:
    """Whether p is ideal-full (I.p = p) and every map from p lifts along
    each X -> X/K with IK = 0: exactly when I.p = p and the multiplication
    Iinf (x)_R p -> p is bijective, one tensor product over any field.

      1. I.p = p iff Iinf.p = p, since Iinf = I^n and I^n.p = p.
      2. The simples killed by I and by Iinf are the same: a nonzero
         ideal action on a simple S is onto, so IS = S gives I^n.S = S.
      3. Each such K has a composition series of these simples, and
         Ext^1(p, -) is half exact; conversely the middle term of a
         non-split class of Ext^1(p, S) is an X along which id_p does not
         lift.  So p lifts iff Ext^1(p, S) = 0 for each such S, iff
         Ext^1(p, Y) = 0 for every Y killed by Iinf, iff Tor_1(X, p) = 0
         for every right module X killed by Iinf, since
         Ext^1(p, DX) = D Tor_1(X, p) for the k-dual D (Cartan-Eilenberg,
         Homological Algebra, VI.5).
      4. That reduces to X = R/Iinf: X is a quotient of a free
         R/Iinf-module F with kernel K, Iinf kills K, so
         K (x)_R p = K (x)_R Iinf.p = 0, and Tor_1(F, p), a sum of copies
         of Tor_1(R/Iinf, p), maps onto Tor_1(X, p).
      5. Tor_1(R/Iinf, p) is the kernel of Iinf (x)_R p -> p, whose image
         is Iinf.p = p, so it vanishes iff the dimensions agree.

    is_I_projective_oracle is the catalog-bounded reference."""
    return (ideal_action_image(tt.ideal, p).dim == p.dim
            and tensor_over(tt.algebra, tt.ideal_bimodule, p).dim == p.dim)


def verify_projective_equivalence(ctx: MoritaContext, catalog_r: Catalog,
                                  catalog_s: Catalog) -> Report:
    """The tensor functors restrict to an equivalence between the classes
    of ideal-full, ideal-projective modules on the two sides; units are
    the eta and rho maps, whose inner tensor products are the images.
    Membership is _in_projective_class's one tensor product, exact over
    every field, so only sampled catalogs are flagged (Report)."""
    report = Report("projective class equivalence")
    report.flag_sampled_catalogs(catalog_r, catalog_s)
    t_i, t_j = context_theories(ctx)
    r_members = [(i, p) for i, p in enumerate(catalog_r) if _in_projective_class(t_i, p)]
    s_members = [(i, p) for i, p in enumerate(catalog_s) if _in_projective_class(t_j, p)]
    report.record("R side", "projective class size", True,
                  note=f"{len(r_members)} of {len(catalog_r)} qualify")
    report.record("S side", "projective class size", True,
                  note=f"{len(s_members)} of {len(catalog_s)} qualify")
    # the S side is the R side of the reversed context, where rho is eta
    for side, members, c, t_there, unit in (
            ("R", r_members, ctx, t_j, "eta"),
            ("S", s_members, reverse_context(ctx), t_i, "rho")):
        for i, p in members:
            subject = f"{side}-member[{i}] (dim {p.dim})"
            em = eta_map(c, p)
            report.record(subject, "tensor image in the projective class",
                          _in_projective_class(t_there, em.inner.as_left_module()))
            ok = em.matrix.is_invertible()
            report.record(subject, f"{unit} invertible on member", ok, witness=em.matrix)
    return report
