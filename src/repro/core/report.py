"""Plain-text report tables in the style of the paper's Table II.

The benchmark harness prints the same rows the paper reports -- optimisation
strategy, implementation, top-1 accuracy, average energy, average latency and
feature-map reuse -- so a reader can line the reproduction up against the
publication.  Only string formatting lives here; all numbers come from
:class:`~repro.search.evaluation.EvaluatedConfig` instances.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence

from ..search.evaluation import EvaluatedConfig
from ..search.evolutionary import SearchResult
from ..search.objectives import ObjectiveSet, as_objective_set
from ..search.pareto import hypervolume, select_serving_oriented
from ..utils import _left_sum

__all__ = [
    "format_table",
    "table2_row",
    "comparison_row",
    "search_summary",
    "objective_table",
    "serving_table",
    "serving_summary",
    "campaign_table",
    "portability_table",
    "campaign_summary",
    "serving_campaign_table",
    "policy_adaptivity_table",
    "traffic_ranking_summary",
    "fleet_table",
    "fleet_summary",
    "hypervolume_curve",
    "generations_to_reach",
]


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render a list of dictionaries as an aligned plain-text table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in rendered
    ]
    return "\n".join([header, separator, *body])


def table2_row(
    strategy: str,
    implementation: str,
    evaluated: EvaluatedConfig,
    use_worst_case: bool = False,
) -> dict:
    """One row of the Table II reproduction.

    ``use_worst_case`` reports the all-stages-instantiated metrics, which is
    the right view for non-dynamic baselines (single-unit and static
    partitioned mappings).
    """
    latency = evaluated.worst_case_latency_ms if use_worst_case else evaluated.latency_ms
    energy = evaluated.worst_case_energy_mj if use_worst_case else evaluated.energy_mj
    return {
        "Opt. Strategy": strategy,
        "NN Implement.": implementation,
        "TOP-1 Acc (%)": 100.0 * evaluated.accuracy,
        "Avg. Enrg. (mJ)": energy,
        "Avg. Lat. (ms)": latency,
        "Fmap reuse (%)": 100.0 * evaluated.reuse_fraction,
    }


def comparison_row(label: str, reference: EvaluatedConfig, candidate: EvaluatedConfig) -> dict:
    """Speedup / energy-gain row of a candidate against a reference mapping."""
    return {
        "candidate": label,
        "speedup_x": reference.latency_ms / candidate.latency_ms,
        "energy_gain_x": reference.energy_mj / candidate.energy_mj,
        "accuracy_delta_pct": 100.0 * (candidate.accuracy - reference.accuracy),
        "reuse_pct": 100.0 * candidate.reuse_fraction,
    }


def objective_table(
    evaluated: Sequence[EvaluatedConfig],
    objectives: Optional[ObjectiveSet] = None,
) -> str:
    """One row per configuration with the objective set's named columns.

    The default set renders the paper's trio (``latency_ms``, ``energy_mj``,
    ``accuracy``); a custom :class:`~repro.search.objectives.ObjectiveSet`
    renders whatever objectives it declares, in declaration order and in
    their natural units (accuracy as accuracy, not its negation).  Values an
    extractor cannot produce render as ``inf``.
    """
    objective_set = as_objective_set(objectives)
    rows = []
    for item in evaluated:
        row: dict = {"config": item.config.describe()}
        for spec in objective_set:
            row[spec.name] = spec.raw_value(item)
        rows.append(row)
    return format_table(rows, float_format="{:.4f}")


def serving_table(
    metrics_list,
    front: Optional[Sequence[EvaluatedConfig]] = None,
    family=None,
    rate_rps: Optional[float] = None,
    max_accuracy_drop: Optional[float] = None,
) -> str:
    """Side-by-side percentile table of serving runs (one row per policy/run).

    Accepts :class:`~repro.serving.metrics.ServingMetrics` instances (their
    ``summary_row`` views are rendered) or ready-made row dictionaries.

    When ``front`` is given (with a workload ``family`` or explicit
    ``rate_rps``), a footer names the front member
    :func:`~repro.search.pareto.select_serving_oriented` would deploy for
    that load — its isolated latency, the M/D/1 queueing delay expected at
    the peak rate, and its accuracy — so the table answers "which mapping
    should actually serve this" next to the measured runs.
    """
    rows = [
        metrics.summary_row() if hasattr(metrics, "summary_row") else dict(metrics)
        for metrics in metrics_list
    ]
    table = format_table(rows)
    if front is None:
        return table
    pick = select_serving_oriented(
        list(front),
        family=family,
        rate_rps=rate_rps,
        max_accuracy_drop=max_accuracy_drop,
    )
    from ..serving.policies import Deployment

    rate = float(rate_rps) if rate_rps is not None else float(family.peak_rate_rps)
    wait = Deployment.from_evaluated(pick).expected_wait_ms(rate)
    wait_text = f"{wait:.2f} ms wait" if math.isfinite(wait) else "saturated"
    footer = (
        f"serving-oriented pick @ {rate:.0f} rps: {pick.config.describe()} "
        f"({pick.latency_ms:.2f} ms isolated, {wait_text}, "
        f"{100.0 * pick.accuracy:.1f}% top-1)"
    )
    return "\n".join([table, footer])


def serving_summary(metrics) -> str:
    """One-paragraph summary of a single serving run."""
    utilisation = ", ".join(
        f"{name} {100.0 * value:.0f}%" for name, value in sorted(metrics.utilisation.items())
    )
    lines = [
        f"{metrics.policy}: {metrics.num_requests} requests over "
        f"{metrics.duration_ms / 1000.0:.1f}s ({metrics.throughput_rps:.1f} req/s)",
        f"latency p50/p95/p99 {metrics.p50_latency_ms:.2f}/{metrics.p95_latency_ms:.2f}/"
        f"{metrics.p99_latency_ms:.2f} ms (mean {metrics.mean_latency_ms:.2f} ms, "
        f"queueing {metrics.mean_queueing_ms:.2f} ms)",
        f"deadline misses {100.0 * metrics.deadline_miss_rate:.2f}%, "
        f"accuracy {100.0 * metrics.accuracy:.1f}%, "
        f"energy {metrics.energy_per_request_mj:.2f} mJ/request "
        f"({metrics.total_energy_mj / 1000.0:.2f} J total)",
        f"utilisation: {utilisation}; mean in-flight {metrics.mean_in_flight:.2f} "
        f"(peak {metrics.peak_in_flight})",
    ]
    return "\n".join(lines)


def campaign_table(campaign) -> str:
    """One row per (platform, scenario) cell of a campaign.

    Reports the searched best mapping per cell — accuracy, averages, front
    size — plus how many of the cell's Pareto points survive translation to
    every *other* platform (summed over targets), the cross-platform
    headline of :class:`~repro.campaign.runner.CampaignResult`.
    """
    # The sim_cache column only appears when at least one cell searched
    # under measured serving objectives, so proxy-objective campaigns render
    # byte-identically to the pre-measured format.
    show_cache = any(cell.measured_cache_stats is not None for cell in campaign.cells)
    rows = []
    for cell in campaign.cells:
        outbound = [
            entry
            for entry in campaign.portability
            if entry.source == cell.platform_name and entry.scenario == cell.scenario_name
        ]
        transferred = sum(entry.transferred for entry in outbound)
        surviving = sum(entry.surviving_on_front for entry in outbound)
        best = cell.result.best
        row = {
            "platform": cell.platform_name,
            "scenario": cell.scenario_name,
            "evals": cell.result.num_evaluations,
            "front": len(cell.front),
            "best_lat_ms": best.latency_ms,
            "best_enrg_mJ": best.energy_mj,
            "acc_%": 100.0 * best.accuracy,
            "travels": f"{surviving}/{transferred}" if transferred else "-",
        }
        if show_cache:
            stats = cell.measured_cache_stats
            row["sim_cache"] = (
                f"{stats.avoided}/{stats.lookups}" if stats is not None else "-"
            )
        rows.append(row)
    return format_table(rows)


def portability_table(campaign, scenario: Optional[str] = None) -> str:
    """The regret matrix: rows are source platforms, columns are targets.

    Each entry is ``best-transferred-objective / native-best-objective`` —
    1.00 means the source front transfers perfectly; larger means deploying
    the source's mappings on that target leaves quality on the table.
    """
    scenario = campaign.scenario_names[0] if scenario is None else scenario
    matrix = campaign.portability_matrix(scenario)
    rows = []
    for source in campaign.platform_names:
        row = {"searched on \\ deployed on": source}
        for target in campaign.platform_names:
            if source == target:
                row[target] = "1.00*"
            else:
                row[target] = matrix[(source, target)]
        rows.append(row)
    return format_table(rows)


def _measured_cache_line(cells) -> Optional[str]:
    """Aggregate measured-serving cache efficiency over the given cells.

    ``None`` when no cell searched under measured objectives (the line — and
    only the line — is omitted, keeping proxy-campaign reports
    byte-identical).  The counts are
    :class:`~repro.serving.result_cache.MeasuredCellStats` — pure functions
    of each cell's seeded search trajectory — so the line is byte-identical
    across serial, cell-parallel and checkpoint-resumed runs.
    """
    stats = [
        cell.measured_cache_stats
        for cell in cells
        if cell.measured_cache_stats is not None
    ]
    if not stats:
        return None
    lookups = sum(item.lookups for item in stats)
    unique = sum(item.unique for item in stats)
    return (
        f"measured serving cache: {lookups - unique}/{lookups} lookups avoided "
        f"a simulation ({unique} unique replays)"
    )


def campaign_summary(campaign) -> str:
    """Full plain-text report of a campaign run (deterministic for a seed).

    Contains only seed-determined numbers — no wall-clock or cache-rate
    telemetry — so two runs with the same seed produce byte-identical text
    regardless of ``cell_workers`` or machine.
    """
    lines = [
        f"campaign: {campaign.network_name} x {len(campaign.platform_names)} platforms "
        f"x {len(campaign.scenario_names)} scenarios (seed {campaign.seed})",
        "",
        campaign_table(campaign),
    ]
    for scenario in campaign.scenario_names:
        lines.append("")
        lines.append(f"portability regret ({scenario}):")
        lines.append(portability_table(campaign, scenario))
        dominated = [
            entry
            for entry in campaign.portability
            if entry.scenario == scenario and not entry.fully_pareto_optimal
        ]
        for entry in dominated:
            lines.append(
                f"  {entry.source} front is not Pareto-optimal on {entry.target}: "
                f"{entry.surviving_on_front}/{entry.transferred} mappings survive"
            )
    traffic_cells = [cell for cell in campaign.cells if cell.traffic_ranking]
    if traffic_cells:
        lines.append("")
        lines.append("under shared traffic (best per platform):")
        for cell in traffic_cells:
            winner = cell.traffic_ranking[0]
            lines.append(
                f"  {cell.platform_name}/{cell.scenario_name}: "
                f"{winner.deployment.name} "
                f"(p99 {winner.metrics.p99_latency_ms:.2f} ms, "
                f"{winner.metrics.energy_per_request_mj:.2f} mJ/req)"
            )
    cache_line = _measured_cache_line(campaign.cells)
    if cache_line is not None:
        lines.append("")
        lines.append(cache_line)
    return "\n".join(lines)


def serving_campaign_table(serving) -> str:
    """One row per (family, platform) cell of a serving campaign.

    Rows come out family-major (every platform under the first family, then
    the next family), mirroring the cell order of
    :class:`~repro.campaign.serving_runner.ServingCampaignResult`; the
    ``served_p99/J`` column is the cell's headline score (see the
    serving-runner module docs), rendered at fixed precision so the table is
    byte-deterministic for a seed.
    """
    return format_table([cell.summary_row() for cell in serving.cells])


def policy_adaptivity_table(serving) -> str:
    """One row per (family, platform, policy) of a policy-axis campaign.

    ``vs_static`` is the policy's served-p99-per-joule as a multiple of the
    same cell's static baseline — above ``1.00x`` means runtime adaptivity
    beat the best static front member for that traffic.  Fixed precision
    keeps the table byte-deterministic for a seed.
    """
    rows = []
    for cell in serving.cells:
        kinds = cell.policies
        static_score = cell.policy_score("static") if "static" in kinds else None
        for policy in kinds:
            score = cell.policy_score(policy)
            rows.append(
                {
                    "family": cell.family_name,
                    "platform": cell.platform_name,
                    "policy": policy,
                    "p99_ms": cell.policy_mean(policy, "p99_latency_ms"),
                    "mJ/req": cell.policy_mean(policy, "energy_per_request_mj"),
                    "served_p99/J": f"{score:.4f}",
                    "vs_static": (
                        f"{score / static_score:.2f}x"
                        if static_score
                        else "n/a"
                    ),
                }
            )
    return format_table(rows)


def traffic_ranking_summary(serving) -> str:
    """Full plain-text report of a serving campaign (deterministic per seed).

    Contains only seed-determined numbers — the cell table, the per-family
    platform ranking by served-p99-per-joule, where that serving winner
    disagrees with the platform the isolated-energy view would have picked,
    and (for policy-axis campaigns) the adaptivity table answering when the
    adaptive policies beat the best static point.  Static-only campaigns
    render byte-identically to the pre-policy format.
    """
    lines = [
        f"serving campaign: {serving.network_name} x "
        f"{len(serving.platform_names)} platforms x "
        f"{len(serving.family_names)} families x "
        f"{serving.members_per_family} members "
        f"(seed {serving.seed}, {serving.duration_ms:.0f} ms/member, "
        f"ranked by {serving.metric})",
        "",
        serving_campaign_table(serving),
        "",
        "traffic ranking (served-p99-per-joule, best first):",
    ]
    for family in serving.family_names:
        ranked = serving.ranking(family)
        lines.append(
            f"  {family}: "
            + " > ".join(
                f"{cell.platform_name} ({cell.served_p99_per_joule:.4f})"
                for cell in ranked
            )
        )
    isolated = serving.isolated_energy_best()
    lines.append("")
    lines.append(f"isolated-energy best: {isolated}")
    disagreements = [
        family
        for family in serving.family_names
        if serving.best_platform(family) != isolated
    ]
    if disagreements:
        for family in disagreements:
            lines.append(
                f"  {family}: served best is {serving.best_platform(family)}, "
                f"not {isolated}"
            )
    else:
        lines.append(
            "  every family's served winner matches the isolated-energy best"
        )
    if serving.policies != ("static",):
        lines.append("")
        lines.append("policy adaptivity (served-p99-per-joule vs best static point):")
        lines.append(policy_adaptivity_table(serving))
        for policy in serving.policies:
            if policy == "static":
                continue
            wins = serving.adaptivity_wins(policy)
            if wins:
                lines.append(
                    f"  {policy} beats the best static point on: "
                    + ", ".join(f"{family}@{platform}" for platform, family in wins)
                )
            else:
                lines.append(f"  {policy} never beats the best static point")
    cache_line = _measured_cache_line(serving.campaign.cells)
    if cache_line is not None:
        lines.append("")
        lines.append(cache_line)
    return "\n".join(lines)


def fleet_table(fleet) -> str:
    """One row per (family, mix) cell of a fleet campaign.

    Rows come out family-major (every mix under the first family, then the
    next family), mirroring the cell order of
    :class:`~repro.campaign.fleet_runner.FleetCampaignResult`; ``slo`` marks
    whether every member stayed inside the p99 budget without drops, and
    ``MJ/day@1M`` is the projected megajoules to serve one million requests
    per day at the cell's per-request efficiency.  Fixed precision keeps the
    table byte-deterministic for a seed.
    """
    return format_table([cell.summary_row() for cell in fleet.cells])


def fleet_summary(fleet) -> str:
    """Full plain-text report of a fleet campaign (deterministic per seed).

    Contains only seed-determined numbers — the cell table, each mix's
    composition, and the per-family mix ranking (within-SLO mixes by total
    joules, SLO violators after, by how badly they miss).
    """
    lines = [
        f"fleet campaign: {fleet.network_name} x "
        f"{len(fleet.mix_names)} mixes x "
        f"{len(fleet.family_names)} families x "
        f"{fleet.members_per_family} members "
        f"(seed {fleet.seed}, {fleet.duration_ms:.0f} ms/member, "
        f"p99 SLO {fleet.p99_slo_ms:.0f} ms)",
        "",
        "mixes:",
    ]
    for mix in fleet.mixes:
        counts = " + ".join(
            f"{count}x {spec if isinstance(spec, str) else spec.name}"
            for spec, count in mix.counts
        )
        scaler = "autoscaled" if mix.autoscaler is not None else "always-on"
        lines.append(
            f"  {mix.name}: {counts} ({mix.selection} front point, "
            f"{mix.router} router, {scaler})"
        )
    lines.extend(["", fleet_table(fleet), ""])
    lines.append("fleet ranking (joules within p99 SLO, best first):")
    for family in fleet.family_names:
        ranked = fleet.ranking(family)
        lines.append(
            f"  {family}: "
            + " > ".join(
                f"{cell.mix_name} ({cell.total_joules:.3f} J)"
                if cell.within_slo
                else f"{cell.mix_name} (SLO MISS @ {cell.worst_p99_latency_ms:.1f} ms)"
                for cell in ranked
            )
        )
        if ranked[0].within_slo:
            best = ranked[0]
            lines.append(
                f"    best: {best.mix_name} at "
                f"{best.daily_joules() / 1e6:.3f} MJ per 1M requests/day"
            )
        else:
            lines.append("    best: none within SLO")
    return "\n".join(lines)


def hypervolume_curve(
    result: SearchResult, reference: Sequence[float]
) -> List[float]:
    """Cumulative dominated hypervolume after each generation of a search.

    The engine's history is deduplicated in discovery order and every
    :class:`~repro.search.evolutionary.GenerationStats` records how many
    configurations it contributed (``new_configs``), so the front the search
    knew after generation ``g`` is exactly a prefix of the history.  The
    returned list has one entry per generation and is non-decreasing; two
    searches are compared by how fast their curves rise towards a shared
    ``reference`` point (latency, energy, negated accuracy — all minimised).
    """
    curve: List[float] = []
    offset = 0
    for stats in result.generations:
        offset += stats.new_configs
        curve.append(hypervolume(result.history[:offset], reference))
    return curve


def generations_to_reach(curve: Sequence[float], target: float) -> Optional[int]:
    """First generation index at which ``curve`` reaches ``target``.

    ``curve`` is a per-generation quality sequence (e.g. from
    :func:`hypervolume_curve`, where larger is better); returns ``None`` when
    the target is never reached within the budget.
    """
    for generation, value in enumerate(curve):
        if value >= target:
            return generation
    return None


def search_summary(result: SearchResult) -> str:
    """One-paragraph summary of a search run, including cache/time totals."""
    stats = result.generations
    total_wall_s = _left_sum(s.wall_clock_s for s in stats)
    total_lookups = sum(s.evaluated for s in stats)
    hits = _left_sum(s.cache_hit_rate * s.evaluated for s in stats)
    overall_hit_rate = hits / total_lookups if total_lookups else 0.0
    lines = [
        f"{len(stats)} generations, {total_lookups} evaluations requested, "
        f"{result.num_evaluations} distinct configurations",
        f"cache hit rate {100.0 * overall_hit_rate:.1f}%, "
        f"evaluation wall-clock {total_wall_s:.2f}s",
        f"{len(result.feasible)} feasible, {len(result.pareto)} on the Pareto front",
        f"best: {result.best.config.describe()} "
        f"({result.best.latency_ms:.2f} ms, {result.best.energy_mj:.2f} mJ, "
        f"{100.0 * result.best.accuracy:.1f}% top-1)",
    ]
    return "\n".join(lines)
