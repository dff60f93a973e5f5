"""Deck transformation groups of finite coverings, Galois embedding problems,
and Weierstrass polynomial realizations over a disc with holes."""

from .braid import (
    BraidWord,
    lift_permutation,
    tau,
)
from .certify import WeierstrassCertificate, certify
from .embedding import (
    EmbeddingInstance,
    EmbeddingSolution,
    NoSolutionError,
    canonical_monodromy,
)
from .embedding import solve as solve_embedding
from .embedding import verify as verify_embedding
from .freecover import (
    CosetTable,
    DeckGroup,
    FreeWord,
    Tower,
    act,
    deck_group,
    restriction_hom,
    subtable,
    tower_quotient_check,
)
from .monodromy import (
    MonodromyRep,
    characteristic_hom,
    deck_action_on_roots,
    irreducibility_check,
    splitting_cover,
    track_loop,
)
from .permgroup import (
    ElementIndex,
    GroupHom,
    PermGroup,
    Permutation,
    centralizer_in_sym,
    closure,
    compose,
    inverse,
    isomorphic_as_groups,
)
from .pipeline import (
    PipelineReport,
    VerificationError,
    realize_group,
    run_monodromy,
    run_verify_tower,
    solve_semitop_embedding,
)
from .roots import roots_at
from .wpoly import (
    BaseSpace,
    BivariatePolyQi,
    Disc,
    GaussianRational,
    LoopPath,
    WeierstrassPoly,
    default_base_space,
    generator_loops,
)

__version__ = "0.1.0"
