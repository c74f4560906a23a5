"""Acceptance gate: every criterion checked end-to-end from bundled data.

Each test prints one `[criterion N] PASS/FAIL` line (run with `pytest -s
tests/test_acceptance.py` to see them). One published cell, the audio
from-1995 regression crossover (2001), cannot be derived from the bundled
appendix data, and it sets the audio feasibility-range upper bound. Its
two tests assert the deviation rather than the published value: the
analysis lives, as assertions, in
`test_criterion_6_audio_from1995_cell_known_defect`.
"""

import itertools
import math
import statistics

import pytest

from techknee.adoption import UsageMetric
from techknee.datasets import DATASET_IDS, data_dir, export_bundled, load_all
from techknee.fitting import crossover_empirical, fit_exponential, knee
from techknee.series import AnnualSeries
from techknee.sweep import (
    SweepConfig,
    adoption_series,
    replacement_performance,
    reproduce_case_studies,
    sweep_tables,
    target_performance,
)


@pytest.fixture(scope="module")
def datasets():
    return load_all()


@pytest.fixture(scope="module")
def report(datasets):
    return reproduce_case_studies(datasets)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def cell_map(report):
    return {c.cell_id: c for c in report.cells}


# Baseline (reference media, target) per case, as in criteria 1 and 2.
_BASELINE_PAIRS = {"audio": ("album", "mail_cd"), "video": ("clip", "mail_dvd")}


def ols_crossover_year(case: str, window_from: int | None, window_to: int | None,
                       datasets) -> int:
    """Independent oracle for a fitted baseline crossover.

    Fits ln(value) against the year with `statistics.linear_regression`
    (not `fit_exponential`) for the baseline replacement and target over
    the inclusive window (None leaves a side open), and returns the
    ceiling of the two lines' intersection, the README's convention.
    """
    reference, target = _BASELINE_PAIRS[case]
    lines = []
    for series in (replacement_performance(case, reference, datasets),
                   target_performance(target, datasets)):
        points = [(y, math.log(v)) for y, v in series
                  if (window_from is None or y >= window_from)
                  and (window_to is None or y <= window_to)]
        lines.append(statistics.linear_regression(*zip(*points)))
    (slope_r, icept_r), (slope_t, icept_t) = lines
    return math.ceil((icept_t - icept_r) / (slope_r - slope_t))


def test_criterion_1_audio_baseline_crossover(datasets):
    replacement = replacement_performance("audio", "album", datasets)
    target = target_performance("mail_cd", datasets)
    year = crossover_empirical(replacement, target).year
    check("1", year == 1998, f"audio baseline crossover {year} == 1998")


def test_criterion_2_video_baseline_crossover(datasets):
    replacement = replacement_performance("video", "clip", datasets)
    target = target_performance("mail_dvd", datasets)
    year = crossover_empirical(replacement, target).year
    check("2", year == 2002, f"video baseline crossover {year} == 2002")


def test_criterion_3_audio_knees_exact(datasets):
    adoption = adoption_series("audio", UsageMetric("minutes"), datasets)
    k1 = knee(adoption, 0.01)
    k10 = knee(adoption, 0.10)
    check("3", (k1, k10) == (1999, 2001), f"audio knees 1%={k1} (exp 1999), 10%={k10} (exp 2001)")


def test_criterion_4_video_knee_and_metric_variants(report):
    cells = cell_map(report)
    exact = cells["t3_video_minutes_1pct"]
    anchored = [
        ("t3_audio_raw_1pct", 1999),
        ("t3_audio_songs_1pct", 1999),
        ("t3_video_minutes_10pct", 2003),
        ("t3_video_raw_1pct", 2001),
        ("t3_video_movies_1pct", 2000),
        ("t3_audio_raw_10pct", 2001),
        ("t3_audio_songs_10pct", 2000),
        ("t3_video_raw_10pct", 2005),
        ("t3_video_movies_10pct", 2002),
    ]
    misses = []
    if exact.computed != 2001:
        misses.append(f"video minutes 1% = {exact.computed} != 2001")
    for cell_id, anchor in anchored:
        computed = cells[cell_id].computed
        if computed is None or abs(computed - anchor) > 1:
            misses.append(f"{cell_id} = {computed} not within 1 of {anchor}")
    check("4", not misses, "video 1% knee exact, other metric cells within +/-1"
          + (f"; misses: {misses}" if misses else ""))


def test_criterion_5_table4_reference_media(report):
    cells = cell_map(report)
    expected = {
        "t4_audio_album": (1998, 0),
        "t4_audio_song": (1992, 0),
        "t4_video_clip": (2002, 0),
        "t4_video_sd_movie": (2007, 1),
        "t4_video_hd_movie": (2008, 1),
    }
    misses = []
    for cell_id, (anchor, tolerance) in expected.items():
        computed = cells[cell_id].computed
        if computed is None or abs(computed - anchor) > tolerance:
            misses.append(f"{cell_id} = {computed}, expected {anchor} +/-{tolerance}")
    detail = {cid: cells[cid].computed for cid in expected}
    check("5", not misses, f"table 4 crossovers {detail}" + (f"; misses: {misses}" if misses else ""))


def test_criterion_6_table5_attainable_cells(report):
    cells = cell_map(report)
    expected = {
        "t5_audio_empirical": (1998, 0),
        "t5_audio_fit_all": (1996, 1),
        "t5_video_empirical": (2002, 0),
        "t5_video_fit_all": (2001, 1),
        "t5_video_fit_from1995": (2002, 1),
    }
    misses = []
    for cell_id, (anchor, tolerance) in expected.items():
        computed = cells[cell_id].computed
        if computed is None or abs(computed - anchor) > tolerance:
            misses.append(f"{cell_id} = {computed}, expected {anchor} +/-{tolerance}")
    detail = {cid: cells[cid].computed for cid in expected}
    check("6", not misses, f"table 5 cells {detail}" + (f"; misses: {misses}" if misses else ""))


def test_criterion_6_audio_from1995_cell_known_defect(datasets, report):
    """Asserted deviation: the published 2001 is not derivable here.

    Table 5's audio "exponential regression from 1995" cell is published
    as 2001. Log-space least squares over 1995-2015 puts the intersection
    at 1997.29, so the cell computes 1998 and is reported as a deviation.
    This test asserts that the published value is carried unchanged, that
    the computed year is the one an independent OLS fit gives, and why no
    ordinary-least-squares window reproduces 2001:
    - every window from 1995 ending anywhere in 1998-2015 stays more than
      1 year away from 2001;
    - the window through 1995 (data up to 1995, extrapolated) does reach
      2001 for audio, but the same reading misses the video from-1995
      cell (2002 +/-1).
    PAPER.md holds only the abstract, so the repo cannot say whether the
    paper used some other construction. If a construction that gives 2001
    is ever found, the program changes, and this test and the criterion-8
    audio range test go back to asserting the published value.
    """
    cells = cell_map(report)
    cell = cells["t5_audio_fit_from1995"]
    video = cells["t5_video_fit_from1995"]
    misses = []
    if (cell.expected, cell.tolerance, cell.status) != (2001, 1, "deviation"):
        misses.append(f"cell carries {cell.expected} +/-{cell.tolerance} as {cell.status}, "
                      "expected 2001 +/-1 as deviation")
    oracle = ols_crossover_year("audio", 1995, None, datasets)
    if cell.computed != oracle:
        misses.append(f"computed {cell.computed} != OLS oracle {oracle}")
    window_ends = {end: ols_crossover_year("audio", 1995, end, datasets)
                   for end in range(1998, 2016)}
    reaching = {end: y for end, y in window_ends.items() if abs(y - cell.expected) <= 1}
    if reaching:
        misses.append(f"windows from 1995 reach 2001 +/-1: {reaching}")
    audio_through = ols_crossover_year("audio", None, 1995, datasets)
    video_through = ols_crossover_year("video", None, 1995, datasets)
    if abs(audio_through - cell.expected) > 1:
        misses.append(f"through-1995 audio {audio_through} no longer reaches 2001 +/-1")
    if abs(video_through - video.expected) <= video.tolerance:
        misses.append(f"through-1995 video {video_through} fits {video.expected} "
                      f"+/-{video.tolerance}")
    check("6", not misses,
          f"audio from-1995 regression crossover {cell.computed} (published 2001 +/-1, "
          f"{cell.status}); OLS oracle {oracle}, windows ending 1998-2015 give "
          f"{min(window_ends.values())}-{max(window_ends.values())}; through 1995: "
          f"audio {audio_through}, video {video_through} (published {video.expected})"
          + (f"; misses: {misses}" if misses else ""))


def test_criterion_7_table2_targets(report):
    cells = cell_map(report)
    years = {
        "t2_audio_mail_cd": cells["t2_audio_mail_cd"].computed,
        "t2_audio_mail_cassette": cells["t2_audio_mail_cassette"].computed,
        "t2_video_mail_dvd": cells["t2_video_mail_dvd"].computed,
    }
    ok = years == {
        "t2_audio_mail_cd": 1998,
        "t2_audio_mail_cassette": 1997,
        "t2_video_mail_dvd": 2002,
    }
    drive_ok = all(
        cells[cid].status == "unsupported" and "no published cost model" in cells[cid].note
        for cid in ("t2_audio_drive", "t2_video_drive")
    )
    check("7", ok and drive_ok, f"table 2 mail cells {years}, drive cells unsupported={drive_ok}")


def test_criterion_8_video_feasibility_range(report):
    rng = next(r for r in report.ranges if r.case == "video")
    check("8", rng.computed == (2001, 2008),
          f"video crossover feasibility range {rng.computed} == (2001, 2008)")


def test_criterion_8_audio_feasibility_range_known_defect(report):
    """Asserted deviation: the audio range misses only through one cell.

    The published audio crossover range is (1992, 2001); it computes
    (1992, 1998) because its upper bound comes from the from-1995
    regression cell, which the criterion-6 known-defect test shows cannot
    be derived. This test asserts that the range is the min/max of the
    computed audio crossover cells, that its lower bound is exact, and
    that putting the published 2001 in place of that one cell gives
    exactly the published range. If a construction that gives 2001 is
    ever found, the program changes, and this test goes back to asserting
    the published range.
    """
    rng = next(r for r in report.ranges if r.case == "audio")
    crossovers = {c.cell_id: c.computed for c in report.cells
                  if c.case == "audio" and c.table != "table3" and c.computed is not None}
    published_cell = cell_map(report)["t5_audio_fit_from1995"].expected
    years = dict(crossovers, t5_audio_fit_from1995=published_cell).values()
    substituted = (min(years), max(years))
    misses = []
    if (rng.expected, rng.status) != ((1992, 2001), "deviation"):
        misses.append(f"range carries {rng.expected} as {rng.status}, "
                      "expected (1992, 2001) as deviation")
    if rng.computed != (min(crossovers.values()), max(crossovers.values())):
        misses.append(f"computed {rng.computed} is not the min/max of {crossovers}")
    if rng.computed is None or rng.computed[0] != 1992:
        misses.append(f"lower bound of {rng.computed} is not exactly 1992")
    if substituted != (1992, 2001):
        misses.append(f"published from-1995 cell gives {substituted}")
    check("8", not misses,
          f"audio crossover feasibility range {rng.computed} (published {rng.expected}, "
          f"{rng.status}); with the published from-1995 cell: {substituted}"
          + (f"; misses: {misses}" if misses else ""))


def test_criterion_9_property_suites(datasets, tmp_path):
    failures = []

    # exact recovery of synthetic exponentials to 1e-9 relative
    for a, k in ((5.0, 0.1), (0.02, -0.4), (123.0, 0.9)):
        s = AnnualSeries.from_mapping(
            {2000 + i: a * math.exp(k * i) for i in range(12)}, "count-per-year"
        )
        fit = fit_exponential(s)
        if abs(math.exp(fit.log_a) - a) > 1e-9 * a or abs(fit.k - k) > 1e-9 * abs(k):
            failures.append(f"fit recovery a={a} k={k}")

    # crossover monotonicity under pointwise scaling
    unit = "media-units-per-real-dollar"
    rep = replacement_performance("audio", "album", datasets)
    tgt = target_performance("mail_cd", datasets)
    base = crossover_empirical(rep, tgt).year
    up = crossover_empirical(rep.scale(4.0), tgt).year
    down = crossover_empirical(rep.scale(0.25), tgt).year
    if not (up is not None and up <= base):
        failures.append(f"scaling up delayed crossover: {base} -> {up}")
    if down is not None and down < base:
        failures.append(f"scaling down advanced crossover: {base} -> {down}")

    # adoption shares sum to 1 per year to 1e-12, over each case's minutes
    # usages built from the usage builders; the internet's share of them is
    # `adoption_series`
    from techknee.adoption import DigitalStorage, adoption_share, analog_media_minutes, \
        digital_media_minutes, extend_compression, internet_media_minutes
    from techknee.costs import one_minute_size_bits

    years = datasets.traffic.years
    for case in ("audio", "video"):
        compression = extend_compression(datasets.compression[case], years[0], years[-1])
        one_min = one_minute_size_bits(case)
        everyone = [("internet", internet_media_minutes(datasets.traffic, datasets.media_share[case],
                                                        compression, one_min))]
        everyone += [(m.name, digital_media_minutes(m, compression, one_min)
                      if isinstance(m.storage, DigitalStorage) else analog_media_minutes(m))
                     for m in datasets.physical_media[case]]
        if adoption_share(everyone[0][1], everyone[1:]) != adoption_series(case, UsageMetric("minutes"), datasets):
            failures.append(f"{case} adoption series is not the internet's share of its usages")
        totals: dict[int, float] = {}
        for i, (_, usage) in enumerate(everyone):
            for year, value in adoption_share(usage, everyone[:i] + everyone[i + 1:]):
                totals[year] = totals.get(year, 0.0) + value
        bad = {y: t for y, t in totals.items() if abs(t - 1.0) > 1e-12}
        if bad:
            failures.append(f"{case} shares do not sum to 1: {bad}")

    # knee threshold monotonicity on the bundled adoption curves
    for case in ("audio", "video"):
        adoption = adoption_series(case, UsageMetric("minutes"), datasets)
        knees = [knee(adoption, t) for t in (0.01, 0.05, 0.10, 0.25)]
        present = [k for k in knees if k is not None]
        if present != sorted(present):
            failures.append(f"{case} knee thresholds not monotone: {knees}")

    # sweep determinism under forced out-of-order evaluation: each
    # crossover and metric of the product swept on its own, the last first
    config = SweepConfig.from_json(
        {
            "case": "audio",
            "targets": ["mail_cd", "mail_cassette"],
            "reference_media": ["album", "song"],
            "usage_metrics": ["minutes"],
            "detection": ["empirical", "fitted"],
            "knee_thresholds": [0.01, 0.10],
        }
    )
    crossovers, knees = sweep_tables(config, datasets)
    for target, media, metric, detection in reversed(list(itertools.product(*config[1:5]))):
        alone = sweep_tables(config._replace(targets=(target,), reference_media=(media,),
                                             usage_metrics=(metric,), detection=(detection,)), datasets)
        if alone != ({(target, media, detection): crossovers[target, media, detection]}, {metric: knees[metric]}):
            failures.append("out-of-order evaluation changed the sweep report")

    # CSV round-trip identity on all eight bundled tables
    exported = export_bundled(tmp_path)
    for path in exported:
        if path.read_bytes() != (data_dir() / path.name).read_bytes():
            failures.append(f"round-trip changed {path.name}")
    if len(exported) != 2 * len(DATASET_IDS):
        failures.append("export did not cover all eight tables")

    check("9", not failures, "property suites (fit recovery, crossover/knee monotonicity, "
          "share totals, sweep determinism, CSV round-trip)"
          + (f"; failures: {failures}" if failures else ""))
