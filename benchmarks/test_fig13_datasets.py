"""Figure 13: the IND and ANT datasets (d = 2).

The paper shows scatter plots; a text harness characterises the same
thing statistically: IND is uniform with ~zero inter-dimension
correlation, ANT concentrates around the anti-diagonal plane with a
strong negative correlation. The benchmark times raw generation
throughput (the simulation's fixed cost).
"""

import random

from repro.streams.generators import (
    AntiCorrelated,
    Independent,
    correlation_matrix,
)

from harness import format_table

SAMPLES = 5_000


def characterise(distribution, seed=17):
    rng = random.Random(seed)
    points = distribution.sample_many(rng, SAMPLES)
    corr = correlation_matrix(points)
    means = [
        sum(p[i] for p in points) / len(points)
        for i in range(distribution.dims)
    ]
    return points, means, corr


def test_fig13_dataset_characteristics(benchmark):
    ind = Independent(2)
    ant = AntiCorrelated(2)

    def generate_both():
        rng = random.Random(23)
        ind.sample_many(rng, SAMPLES)
        ant.sample_many(rng, SAMPLES)

    benchmark.pedantic(generate_both, rounds=3, iterations=1)

    _, ind_means, ind_corr = characterise(ind)
    _, ant_means, ant_corr = characterise(ant)

    print("\n== Figure 13: dataset characteristics (d=2, 5000 points) ==")
    print(
        format_table(
            ["dataset", "mean x1", "mean x2", "corr(x1,x2)"],
            [
                ["IND", f"{ind_means[0]:.3f}", f"{ind_means[1]:.3f}",
                 f"{ind_corr[0][1]:+.3f}"],
                ["ANT", f"{ant_means[0]:.3f}", f"{ant_means[1]:.3f}",
                 f"{ant_corr[0][1]:+.3f}"],
            ],
        )
    )

    # Shape assertions: IND uncorrelated, ANT strongly anti-correlated.
    assert abs(ind_corr[0][1]) < 0.08
    assert ant_corr[0][1] < -0.5
    for mean in ind_means + ant_means:
        assert 0.4 < mean < 0.6


def test_fig13_ant_frontier_is_crowded(benchmark):
    """The consequence the paper cares about: ANT has a much larger
    k-skyband frontier than IND, which is why every ANT experiment
    costs more (Section 8, discussion of Figure 16)."""
    from repro.skyband.skyline import k_skyband

    rng = random.Random(29)
    ind_points = Independent(2).sample_many(rng, 600)
    ant_points = AntiCorrelated(2).sample_many(rng, 600)

    result = {}

    def measure():
        result["ind"] = len(k_skyband(ind_points, 5, (1, 1)))
        result["ant"] = len(k_skyband(ant_points, 5, (1, 1)))

    benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\n5-skyband size over 600 points: IND={result['ind']} "
        f"ANT={result['ant']}"
    )
    assert result["ant"] > 2 * result["ind"]
