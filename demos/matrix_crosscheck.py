"""The matrix oracle at work: verify, corrupt, catch.

The oracle rebuilds every generator as a 0/1 matrix on a depth
truncation straight from the raw edge data, then checks the operator
identities with exact integer arithmetic.  A healthy presentation
sails through; a forged twist is caught by the commutation identity.

Run:  python3 demos/matrix_crosscheck.py
"""

from rowiso.oracle import materialize, verify_relations
from rowiso.pair import PairPresentation, free_pair
from rowiso.search import (SearchSpace, all_thetas, run_fault_injection,
                           search)
from rowiso.words import Theta


def main():
    # a healthy pair: bilateral orbit, both families unitary on it
    pair = PairPresentation(Theta.identity(1, 1), ("b", "c"),
                            {("b", 1): "c"}, {("c", 1): "b"})
    model = materialize(pair, 5)
    print(f"basis at depth 5: {len(model.basis)} vectors, "
          f"{int(model.interior.sum())} interior")
    print("relations:", verify_relations(model))
    print()

    # the standard fault library: every corruption must be caught
    print("fault injection:")
    for name, caught in run_fault_injection().items():
        print(f"  {name}: {'caught' if caught else 'MISSED'}")
    print()

    # a tiny exhaustive search: which one-node pairs with a 2x2 twist
    # are doubly commuting?
    space = SearchSpace(1, 2, 2, all_thetas(2, 2))
    hits = search(space, "doubly-commuting")
    print(f"doubly-commuting one-node pairs over all 2x2 twists: "
          f"{len(hits)}")
    twists = {tuple(map(tuple, pp.theta.to_quadruples())) for pp in hits
              if not pp.s_edges and not pp.t_edges}
    print(f"  edge-free ones: {len(twists)} distinct twists "
          f"(the involutive ones)")
    sample = free_pair(all_thetas(2, 2)[0])
    print(f"  e.g. identity twist, free pair: "
          f"{verify_relations(materialize(sample, 4))}")


if __name__ == "__main__":
    main()
