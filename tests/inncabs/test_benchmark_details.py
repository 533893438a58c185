"""Per-benchmark structural details beyond end-to-end verification."""

import hashlib

from repro.api import Session, WorkloadSpec
from repro.inncabs.fib import FibBenchmark

#: The default preset's alignment scores at seed 20160523, one per pair.
ALIGNMENT_SCORES = tuple(
    int(score)
    for score in """
    -186 -183 -189 -186 -180 -174 -174 -195 -159 -198 -183 -174 -177 -189 -183
    -168 -174 -177 -171 -180 -171 -186 -180 -174 -177 -171 -171 -189 -189 -168
    -186 -192 -165 -189 -198 -180 -180 -156 -186 -195 -177 -192 -171 -195 -150
    -177 -168 -174 -171 -171 -189 -183 -177 -174 -183 -177 -192 -183 -171 -195
    -180 -186 -168 -168 -189 -177 -186 -168 -177 -183 -177 -168 -174 -189 -183
    -186 -189 -192 -174 -177 -177 -183 -171 -186 -168 -183 -195 -183 -174 -165
    -186 -165 -201 -171 -189 -177 -186 -174 -171 -183 -192 -174 -177 -165 -180
    -174 -192 -156 -159 -171 -183 -177 -186 -174 -177 -186 -177 -165 -171 -195
""".split()
)

#: SHA-256 of the default preset's sorted array at seed 20160523
#: (2**19 little-endian int64 values).
SORT_SHA256 = "2927a462e42ac320104b0ea4ce46df68378744404dc876629716761916535c62"


def run_hpx(name, *, cores=2, params=None, keep_result=False):
    session = Session(runtime="hpx", cores=cores)
    return session.run(WorkloadSpec.parse(name), params=params, keep_result=keep_result)


def test_fib_task_count_formula():
    assert FibBenchmark.task_count(1) == 1
    assert FibBenchmark.task_count(2) == 3
    # fib(n) call-tree size: 2*F(n+1) - 1
    assert FibBenchmark.task_count(10) == 2 * 89 - 1


def test_fib_run_matches_task_count():
    result = run_hpx("fib", params={"n": 12})
    # fib's root task is the tree root itself (no separate driver).
    assert result.tasks_executed == FibBenchmark.task_count(12)


def test_alignment_pair_task_count():
    result = run_hpx("alignment", params={"nseq": 6, "seqlen": 40})
    # C(6,2)=15 pair tasks + the root.
    assert result.tasks_executed == 16


def test_default_alignment_scores_are_pinned():
    result = run_hpx("alignment", params={"seed": 20160523}, keep_result=True)
    _, scores = result.result
    assert result.verified
    assert tuple(scores) == ALIGNMENT_SCORES


def test_default_sort_output_is_pinned():
    result = run_hpx("sort", params={"seed": 20160523}, keep_result=True)
    arr, checksum = result.result
    assert result.verified
    assert (len(arr), checksum) == (1 << 19, 562650472210139)
    assert hashlib.sha256(arr.astype("<i8").tobytes()).hexdigest() == SORT_SHA256


def test_round_has_exactly_paper_task_count():
    """Table I: round runs 512 tasks."""
    result = run_hpx("round")
    assert result.tasks_executed == 513  # 512 + root


def test_intersim_task_count():
    result = run_hpx("intersim", params={"rounds": 3, "tasks_per_round": 10, "interchanges": 4})
    assert result.tasks_executed == 31  # 30 + root


def test_floorplan_task_limit_caps_spawning():
    limited = run_hpx("floorplan", params={"task_limit": 10})
    unlimited = run_hpx("floorplan")
    assert limited.verified and unlimited.verified  # same optimum either way
    assert limited.tasks_created < unlimited.tasks_created


def test_floorplan_parallel_explores_at_least_sequential_frontier():
    """The paper's Floorplan observation: execution order changes how
    many nodes branch-and-bound explores (HPX's ordering explored 100x
    more).  Node counts may differ across core counts; the optimum may
    not."""
    r1 = run_hpx("floorplan", cores=1, keep_result=True)
    r8 = run_hpx("floorplan", cores=8, keep_result=True)
    area1, nodes1 = r1.result
    area8, nodes8 = r8.result
    assert area1 == area8  # optimum is order-independent
    assert nodes1 > 0 and nodes8 > 0


def test_sort_cutoff_controls_task_count():
    small = run_hpx("sort", params={"n": 1 << 14, "cutoff": 1 << 12})
    fine = run_hpx("sort", params={"n": 1 << 14, "cutoff": 1 << 10})
    assert fine.tasks_executed > 2 * small.tasks_executed
    assert small.verified and fine.verified


def test_strassen_task_count_seven_way():
    result = run_hpx("strassen", params={"n": 128, "cutoff": 32})
    # Depth-2 recursion: 1 + 7 + 49 strassen tasks + root driver.
    assert result.tasks_executed == 1 + 7 + 49 + 1


def test_uts_tree_size_equals_tasks():
    result = run_hpx("uts", params={"b0": 15, "m": 3, "q": 0.3, "max_depth": 8}, keep_result=True)
    assert result.result == result.tasks_executed  # one task per node


def test_health_task_count():
    result = run_hpx("health", params={"levels": 3, "branching": 2, "steps": 5})
    # 7 villages x 5 steps + root.
    assert result.tasks_executed == 36


def test_qap_smaller_cutoff_fewer_tasks():
    shallow = run_hpx("qap", params={"n": 7, "cutoff": 2})
    deep = run_hpx("qap", params={"n": 7, "cutoff": 4})
    assert shallow.tasks_created < deep.tasks_created
    assert shallow.verified and deep.verified


def test_pyramids_chunking_preserves_result():
    for chunk in (4, 16):
        result = run_hpx(
            "pyramids",
            cores=3,
            params={"width": 2048, "steps": 32, "chunk": chunk, "block": 512},
        )
        assert result.verified


def test_fft_power_of_two_sizes():
    for n in (64, 256):
        result = run_hpx("fft", params={"n": n, "cutoff": 4})
        assert result.verified


def test_seed_changes_results_not_correctness():
    a = run_hpx("sort", params={"n": 4096, "cutoff": 512, "seed": 1})
    b = run_hpx("sort", params={"n": 4096, "cutoff": 512, "seed": 2})
    assert a.verified and b.verified
    assert a.exec_time_ns != b.exec_time_ns  # different data, different merges
