"""Solve all four dimension parameters on a spread of graphs."""

from resolvedim.families import cycle, grid, kK2, path, petersen, wheel
from resolvedim.solvers import solve_adim, solve_bdim, solve_dim, solve_dim_k


def main():
    instances = [
        ("P7", path(7)),
        ("C8", cycle(8)),
        ("wheel(6)", wheel(6)),
        ("petersen", petersen()),
        ("3x3 grid", grid((3, 3))),
        ("2K2", kK2(2)),
    ]
    print(f"{'graph':<10} {'dim':>4} {'adim':>5} {'dim_2':>6} {'bdim':>5}   bdim witness")
    for name, g in instances:
        dim = solve_dim(g)
        adim = solve_adim(g)
        d2 = solve_dim_k(g, 2)
        bdim = solve_bdim(g)
        print(
            f"{name:<10} {dim.value:>4} {adim.value:>5} {d2.value:>6} {bdim.value:>5}"
            f"   {bdim.witness.values}"
        )

    res = solve_dim(petersen())
    print(f"\npetersen lex-least resolving set: {res.witness}")
    print(
        f"candidates examined: {res.candidates_examined} (codes compared for {res.candidates_checked}),"
        f" lower bound {res.lower_bound_used}"
    )


if __name__ == "__main__":
    main()
