"""totlat: exact computation of the total-order central idempotent in the
endomorphism algebra of a finite lattice, with an exhaustive verification
suite for every algebraic property it is supposed to satisfy."""

from .algebra import (
    FormalSum,
    Ring,
    embed,
    f_of_chain,
    idempotent_direct,
    idempotent_original,
    j_upper,
    mu_chain_infinity,
    mu_chain_infinity_oracle,
)
from .lattices import (
    Lattice,
    boolean_lattice,
    chain_lattice,
    diamond_lattice,
    divisor_lattice,
    generate,
    partition_lattice,
    pentagon_lattice,
    product_lattice,
)
from .morphisms import (
    JoinMap,
    alpha_of_chain,
    compose,
    enumerate_join_endomorphisms,
    identity_map,
    image_chain,
    make_join_map,
    opposite_morphism,
    pi_of_chain,
)
from .posets import Chain, Poset

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
