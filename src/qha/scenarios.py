"""Builtin and file-loaded scenario instances.

A scenario bundles an ergodic trace-preserving action on a block algebra,
with its group and Haar model, deterministic random streams, and optional
expectations for the scaling operator.  ``action.group.kind`` picks the
tolerance table and trial count, a row's draws come from
``action.random_trials``, and a scenario file's ``[group]`` mirrors the
group's ``kind`` and ``name``.  ``build_scenario`` reads each family's id
form and builder from one table, ``_FAMILIES``, and hands the builder the
id's tokens after the kind.  Builtin identifiers:

    irrep:s3:<trivial|sign|std>       conjugation by an irreducible rep, probability Haar
    irrep:cyclic(8):chi<j>            one-dimensional character conjugation, 0 <= j < 8
    wh:<n>                            translation-modulation family on cyclic(n)^2, counting Haar
    translation:<group>               the group acting on itself by left translation
    cosets:cyclic(N):cyclic(M)        coset-space permutation action (M divides N)
    twisted-dual:<n>:<m>              dual of cyclic(n)^2 on the m-twisted group algebra
    induced:<G>:<H>:<inner>           action induced from a subgroup instance
    affine-wavelet:<preset>           quadrature scaling-and-shift scenario (coarse|default|fine)
    broken-measure                    negative-control fixture with a non-invariant measure
"""

from __future__ import annotations

import math
import numbers
import re
import zlib
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .algebra import AlgebraElement, trace
from .actions import (
    Action,
    ConjugationAction,
    MonomialStack,
    WaveletAction,
    WaveletDesign,
    conjugation_action,
    coset_action,
    cyclic_character_rep,
    dual_action,
    finite_weyl_heisenberg,
    induced_action,
    left_translation_action,
    s3_irreps,
)
from .groups import (
    FiniteGroup,
    cyclic,
    probability_haar,
    product,
    symmetric,
)

if TYPE_CHECKING:  # imported on use, see _parser
    import configparser

DEFAULT_SEED = 1729


class ConfigError(Exception):
    """Unresolvable scenario identifier or invalid scenario file."""


class _SpecFields(NamedTuple):
    scenario_id: str
    seed: int = DEFAULT_SEED
    tol_rel: float | None = None


class ScenarioSpec(_SpecFields):
    """Declarative scenario description; ``build_scenario`` produces the runtime object."""

    __slots__ = ()

    def __new__(cls, scenario_id, seed=DEFAULT_SEED, tol_rel=None) -> ScenarioSpec:
        # numpy seeds take non-negative integers only
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        # 0, a negative or nan tolerance fails every equality row, inf passes them all
        if tol_rel is not None and not 0.0 < tol_rel < math.inf:
            raise ConfigError("relative tolerance (--tol-rel, [tolerances] rel) must be finite "
                              f"and greater than 0, got {tol_rel}")
        return super().__new__(cls, scenario_id, seed, tol_rel)

    @classmethod
    def _make(cls, fields) -> ScenarioSpec:  # _replace builds through _make: validate there too
        return cls(*fields)


class Scenario:
    """Runtime scenario: an action with its group and Haar model, tolerances, rng streams.

    ``action.group.kind`` picks the tolerance table (FINITE_TOLERANCES,
    WAVELET_TOLERANCES) and the trial count (``_FAMILY_DEFAULTS``).
    ``tolerances`` is a copy of that table with ``pins`` in place of the
    entries they name, and the spec's ``tol_rel``, when it has one, in place
    of the entries of TOL_REL_ROWS.
    """

    def __init__(self, spec: ScenarioSpec, action: Action, pins: dict[str, float] | None = None, *,
                 expected_scalar: float | None = None):
        self.spec = spec
        self.action = action
        table, self.default_trials = _FAMILY_DEFAULTS[action.group.kind]
        self.tolerances = {**table, **(pins or {})}
        if spec.tol_rel is not None:
            self.tolerances.update(dict.fromkeys(TOL_REL_ROWS, spec.tol_rel))
        self.expected_scalar = expected_scalar

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    @property
    def seed(self) -> int:
        return self.spec.seed

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])

    def duflo_pair(self) -> tuple[AlgebraElement, AlgebraElement]:
        rng = self.rng("duflo")
        return self.action.random_positive(rng), self.action.random_positive(rng)


# ---------------------------------------------------------------------------
# group token grammar


_CYCLIC_RE = re.compile(r"^cyclic\((\d+)\)$")


def parse_group_token(tok: str) -> FiniteGroup:
    """Parse 'cyclic(N)', 's3', or products of these like 's3xcyclic(2)'."""
    tok = tok.strip()
    if "x" in tok:
        parts = tok.split("x")
        groups = [parse_group_token(p) for p in parts]
        g = groups[0]
        for h in groups[1:]:
            g = product(g, h)
        return g
    m = _CYCLIC_RE.match(tok)
    if m:
        return cyclic(int(m.group(1)))
    if tok == "s3":
        return symmetric(3)
    raise ConfigError(
        f"unknown group {tok!r}; valid forms: cyclic(N), s3 and products joined by x, as s3xcyclic(2)"
    )


def _cyclic_subgroup_indices(G: FiniteGroup, sub_sizes: tuple[int, ...]) -> list[int]:
    """Indices of the product-of-cyclics subgroup with the given factor sizes."""
    if G.structure is None or len(sub_sizes) != len(G.structure):
        raise ConfigError("subgroup factors must match the ambient cyclic structure")
    for m, n in zip(sub_sizes, G.structure):
        if m < 1 or n % m != 0:
            raise ConfigError(f"subgroup factor {m} does not divide {n}")
    strides = np.array(G.structure) // sub_sizes
    coords = np.stack(np.unravel_index(np.arange(math.prod(sub_sizes)), sub_sizes), axis=1)
    return G.index_of_tuple(coords * strides).tolist()


# ---------------------------------------------------------------------------
# builtin catalog


_WAVELET_PRESETS = {
    "coarse": WaveletDesign(steps_per_octave=8, octaves=6, max_shift=12,
                            b_extent=4.0, n_b=128),
    "default": WaveletDesign(),
    "fine": WaveletDesign().scaled(2),
}

# The rows whose tolerance --tol-rel and [tolerances] rel replace.
TOL_REL_ROWS: tuple[str, ...] = (
    "orthogonality-positive", "orthogonality-general", "semi-invariance",
    "l1-inequality", "l1-equality", "young-inequality", "interpolation-bound",
)

# One table per scenario family: the number each row compares against, as
# its tol_abs or tol_rel (integrability-witness, a flag, bounds the imaginary
# part of its integral by it).  admissibility-identities derives its own from
# the estimate and ergodicity compares integers exactly, so neither has an
# entry.  The entries both families share are written once.
_SHARED_TOLERANCES = {
    "action-validity": 1e-9, "trace-preservation": 1e-10, "integrability-witness": 1e-9,
    "duflo-scalar-form": 1e-9, "bracket-symmetry": 1e-10, "holder-inequality": 1e-9, "alt-inequality": 1e-9,
}
# exact up to double-precision spectral accuracy; translation and cosets
# pin duflo-expected-scalar at 1e-12 and 1e-10 (their builders' pins)
FINITE_TOLERANCES = {
    **_SHARED_TOLERANCES, "duflo-estimate": 1e-8, "duflo-expected-scalar": 1e-9,
    "orthogonality-positive": 1e-9, "orthogonality-general": 1e-9, "semi-invariance": 1e-9,
    "l1-inequality": 1e-9, "l1-equality": 1e-9, "young-inequality": 1e-9, "interpolation-bound": 1e-9,
}
# declared from the refinement study of README's tolerance policy
WAVELET_TOLERANCES = {
    **_SHARED_TOLERANCES, "duflo-estimate": 1e-2, "duflo-expected-kernel": 1e-2,
    "orthogonality-positive": 1e-2, "orthogonality-general": 1e-2, "semi-invariance": 1e-2,
    "l1-inequality": 5e-2, "l1-equality": 5e-2, "young-inequality": 5e-2, "interpolation-bound": 5e-2,
}
# the tolerance table and default trial count of each group kind
_FAMILY_DEFAULTS = {"finite": (FINITE_TOLERANCES, 12), "quadrature": (WAVELET_TOLERANCES, 4)}


def build_scenario(spec: ScenarioSpec) -> Scenario:
    sid = spec.scenario_id
    kind, *args = sid.split(":")
    if kind not in _FAMILIES:
        raise ConfigError(f"unknown scenario {sid!r}; known kinds: {', '.join(_FAMILIES)}")
    form, builder = _FAMILIES[kind]
    if len(args) != form.count(":"):
        raise ConfigError(f"{kind} scenario needs the form {form}")
    try:
        return builder(spec, *args)
    except ConfigError:
        raise
    except Exception as exc:  # structural errors become config errors with context
        raise ConfigError(f"cannot build scenario {sid!r}: {exc}") from exc


def _build_irrep(spec: ScenarioSpec, gtok: str, rtok: str) -> Scenario:
    if gtok == "s3":
        G, reps = s3_irreps()
        if rtok not in reps:
            raise ConfigError(f"unknown s3 rep {rtok!r}; valid: {sorted(reps)}")
        U = reps[rtok]
    else:
        G = parse_group_token(gtok)
        m = re.match(r"^chi(\d+)$", rtok)
        if G.structure is None or len(G.structure) != 1 or not m:
            raise ConfigError("character reps need a cyclic group and rep chi<j>")
        if int(m.group(1)) >= G.order:
            raise ConfigError(f"character {rtok} of {gtok} needs 0 <= j < {G.order}")
        U = cyclic_character_rep(G, int(m.group(1)))
    action = conjugation_action(G, U, haar=probability_haar(G))
    return Scenario(spec, action, expected_scalar=float(action.shape.block_dim))


def _build_wh(spec: ScenarioSpec, n: str) -> Scenario:
    n = int(n)
    action = conjugation_action(product(cyclic(n), cyclic(n)), finite_weyl_heisenberg(n))
    return Scenario(spec, action, expected_scalar=1.0 / n)


def _build_translation(spec: ScenarioSpec, gtok: str) -> Scenario:
    action = left_translation_action(parse_group_token(gtok))
    return Scenario(spec, action, {"duflo-expected-scalar": 1e-12}, expected_scalar=1.0)


def _build_cosets(spec: ScenarioSpec, gtok: str, htok: str) -> Scenario:
    G, H = parse_group_token(gtok), parse_group_token(htok)
    if G.structure is None or H.structure is None or len(G.structure) != 1:
        raise ConfigError("coset scenario needs cyclic groups")
    n, m = G.structure[0], H.structure[0]
    if n % m != 0:
        raise ConfigError(f"{m} does not divide {n}")
    h_indices = [(n // m) * k for k in range(m)]
    action = coset_action(G, h_indices)
    return Scenario(spec, action, {"duflo-expected-scalar": 1e-10}, expected_scalar=1.0 / m)


def _build_twisted_dual(spec: ScenarioSpec, n: str, m: str) -> Scenario:
    n, m = int(n), int(m)
    if m != 0 and math.gcd(m, n) != 1:
        raise ConfigError(f"twist m={m} must be 0 or coprime to n={n}")
    G = product(cyclic(n), cyclic(n))
    action = dual_action(G, m)
    return Scenario(spec, action, expected_scalar=1.0 / (n * n))


def _build_induced(spec: ScenarioSpec, gtok: str, htok: str, itok: str) -> Scenario:
    G = parse_group_token(gtok)
    H_model = parse_group_token(htok)
    if G.structure is None or H_model.structure is None:
        raise ConfigError("induced scenario needs groups built from cyclic factors")
    h_indices = _cyclic_subgroup_indices(G, H_model.structure)
    sub_group, embed = G.subgroup(h_indices)
    if itok == "wh2":
        if H_model.structure != (2, 2):
            raise ConfigError("inner wh2 needs subgroup cyclic(2)xcyclic(2)")
        inner = conjugation_action(H_model, finite_weyl_heisenberg(2))
        strides = np.array(G.structure) // H_model.structure
        iso = H_model.index_of_tuple(G.coords[list(embed)] // strides)
    elif itok == "translation":
        inner = left_translation_action(sub_group)
        iso = list(range(sub_group.order))
    else:
        raise ConfigError(f"unknown inner action {itok!r}; valid: wh2, translation")
    action = induced_action(G, h_indices, inner, iso)
    tau_one = trace(action.shape.identity()).real
    return Scenario(spec, action, expected_scalar=tau_one / G.order)


def _build_wavelet(spec: ScenarioSpec, preset: str) -> Scenario:
    if preset not in _WAVELET_PRESETS:
        raise ConfigError(f"unknown wavelet preset {preset!r}; valid: {sorted(_WAVELET_PRESETS)}")
    return Scenario(spec, WaveletAction(_WAVELET_PRESETS[preset]))


def refined_wavelet(scn: Scenario, level: int) -> Scenario:
    """The wavelet scenario ``scn`` with every quadrature axis of its design
    refined by 2**level, under the same spec; level 0 rebuilds the design."""
    return Scenario(scn.spec, WaveletAction(scn.action.design.scaled(2 ** level)))


def _build_broken(spec: ScenarioSpec) -> Scenario:
    # the swap of two atoms of weights 1 and 2, as 1x1 blocks with unit phases
    G, units = cyclic(2), MonomialStack(np.zeros((2, 2, 1), dtype=int), np.ones((2, 2, 1)))
    return Scenario(spec, ConjugationAction(G, units, G.table, (1.0, 2.0), kind="permutation"))


# Each family's id form and builder; the builder takes the id's tokens after the kind.
_FAMILIES = {
    "irrep": ("irrep:<group>:<rep>", _build_irrep),
    "wh": ("wh:<n>", _build_wh),
    "translation": ("translation:<group>", _build_translation),
    "cosets": ("cosets:cyclic(N):cyclic(M)", _build_cosets),
    "twisted-dual": ("twisted-dual:<n>:<m>", _build_twisted_dual),
    "induced": ("induced:<G>:<H>:<inner>", _build_induced),
    "affine-wavelet": ("affine-wavelet:<preset>", _build_wavelet),
    "broken-measure": ("broken-measure", _build_broken),
}


BUILTIN_IDS: tuple[str, ...] = (
    "irrep:s3:trivial",
    "irrep:s3:sign",
    "irrep:s3:std",
    *(f"irrep:cyclic(8):chi{j}" for j in range(8)),
    "wh:2",
    "wh:3",
    "wh:4",
    "wh:5",
    "wh:8",
    "translation:cyclic(6)",
    "cosets:cyclic(6):cyclic(3)",
    "twisted-dual:8:0",
    "twisted-dual:4:1",
    "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2",
    "affine-wavelet:default",
)


def builtin(scenario_id: str, seed: int | None = None) -> ScenarioSpec:
    """Spec for a builtin id (validated by building it once)."""
    spec = ScenarioSpec(scenario_id, seed=seed if seed is not None else DEFAULT_SEED)
    build_scenario(spec)
    return spec


def list_builtins() -> tuple[str, ...]:
    return BUILTIN_IDS


# ---------------------------------------------------------------------------
# scenario files (INI sections; unknown keys rejected)


_SECTION_KEYS = {
    "scenario": {"id", "seed"},
    "group": {"kind", "spec"},
    "haar": {"normalization"},
    "algebra": {"block_dims", "trace_weights"},
    "action": {"kind"},
    "tolerances": {"rel"},
    "expect": {"scalar", "kernel"},
}


def _parser() -> configparser.ConfigParser:
    import configparser  # loaded only when a scenario file is read or written
    return configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)


def _mirrors(scn: Scenario) -> dict[str, dict[str, str]]:
    """The sections a scenario file mirrors from the built scenario."""
    expect, shape = {}, scn.action.shape
    if scn.expected_scalar is not None:
        expect["scalar"] = f"{scn.expected_scalar:.17g}"
    if scn.action.expected_kernel is not None:
        expect["kernel"] = scn.action.expected_kernel
    return {
        "group": {"kind": scn.action.group.kind, "spec": scn.action.group.name},
        "haar": {"normalization": scn.action.haar.normalization},
        "algebra": {
            "block_dims": ",".join([str(shape.block_dim)] * len(shape.trace_weights)),
            "trace_weights": ",".join(f"{w:.17g}" for w in shape.trace_weights),
        },
        "action": {"kind": scn.action.kind},
        "expect": expect,
    }


def _same_value(declared: str, actual: str) -> bool:
    """Equal as comma-separated numbers to 1e-9 relative, else as text."""
    a, b = declared.split(","), actual.split(",")
    try:
        return len(a) == len(b) and all(
            math.isclose(float(u), float(v), rel_tol=1e-9) for u, v in zip(a, b))
    except ValueError:
        return declared == actual


def _parsed(cp: configparser.ConfigParser, section: str, key: str, kind, default=None):
    if section not in cp or key not in cp[section]:
        return default
    try:
        return kind(cp[section][key])
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {cp[section][key]!r} is not a valid "
                          f"{kind.__name__}") from None


def save_scenario(spec: ScenarioSpec, path) -> None:
    """Write the scenario description as an INI file (see load_scenario).

    ``[tolerances] rel`` is written only when the spec overrides the family
    table, so loading the file gives back the same spec.
    """
    cp = _parser()
    cp["scenario"] = {"id": spec.scenario_id, "seed": str(spec.seed)}
    cp.read_dict(_mirrors(build_scenario(spec)))
    if spec.tol_rel is not None:
        cp["tolerances"] = {"rel": f"{spec.tol_rel:.17g}"}
    with open(path, "w") as fh:
        cp.write(fh)


def load_scenario(path) -> ScenarioSpec:
    """Read a scenario INI file back into a spec.

    The [scenario] id names the family; the [group], [haar], [algebra],
    [action] and [expect] keys present must match the scenario it builds.
    Unknown sections or keys are rejected, ``#`` starts a comment, and a
    missing tolerance falls back to the family table.
    """
    import configparser
    cp = _parser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse scenario file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read scenario file {path!r}")
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}] in {path!r}")
        extra = set(cp[section]) - _SECTION_KEYS[section]
        if extra:
            raise ConfigError(f"unknown keys {sorted(extra)} in section [{section}]")
    if "scenario" not in cp or "id" not in cp["scenario"]:
        raise ConfigError("scenario file needs [scenario] with an id")
    sid = cp["scenario"]["id"]
    spec = ScenarioSpec(sid, seed=_parsed(cp, "scenario", "seed", int, DEFAULT_SEED),
                        tol_rel=_parsed(cp, "tolerances", "rel", float))
    for section, actual in _mirrors(build_scenario(spec)).items():
        for key, declared in (cp[section].items() if section in cp else ()):
            if key not in actual or not _same_value(declared, actual[key]):
                raise ConfigError(f"[{section}] {key} = {declared!r} does not match scenario "
                                  f"{sid!r}, which has {actual.get(key, 'none')!r}")
    return spec
