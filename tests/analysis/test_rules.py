"""One firing fixture and one near-miss fixture per lint rule.

Every rule gets at least one *true positive* (a snippet that violates
the invariant and must produce exactly that rule's code) and one *near
miss* (a snippet doing the compliant version of the same thing that must
stay silent).  Snippets are analyzed in memory against a virtual
``module_path`` so scope matching works without touching the filesystem.
"""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source

QUERY_PATH = "src/repro/core/example.py"
DISTRIBUTED = "src/repro/distributed/example.py"
OUTSIDE = "src/repro/learn/example.py"


def codes(source: str, module_path: str = QUERY_PATH, **kwargs) -> list[str]:
    # Fixtures target one rule each, so the typing rule (RL402) is kept
    # out of the way unless a test opts back in; its own fixtures below
    # select it explicitly.
    kwargs.setdefault("ignore", ["RL402"])
    source = textwrap.dedent(source)
    return [d.code for d in analyze_source(source, module_path=module_path, **kwargs)]


# -- RL101: unsorted set iteration ----------------------------------------


class TestUnsortedSetIteration:
    def test_for_over_set_literal_fires(self):
        assert codes("for x in {1, 2}:\n    print(x)\n") == ["RL101"]

    def test_for_over_set_call_fires(self):
        assert codes("for x in set(items):\n    print(x)\n") == ["RL101"]

    def test_comprehension_over_set_difference_fires(self):
        assert codes("out = [x for x in set(seen) - done]\n") == ["RL101"]

    def test_set_bound_local_name_fires(self):
        source = """
        def f(items):
            pending = set(items)
            return [x for x in pending]
        """
        assert codes(source) == ["RL101"]

    def test_sorted_set_is_silent(self):
        assert codes("for x in sorted({1, 2}):\n    print(x)\n") == []

    def test_order_insensitive_consumer_is_silent(self):
        assert codes("total = sum(x for x in {1, 2})\n") == []

    def test_rebound_name_is_not_assumed_to_be_a_set(self):
        source = """
        def f(items):
            pending = set(items)
            pending = order_of(pending)
            return [x for x in pending]
        """
        assert codes(source) == []

    def test_out_of_scope_module_is_silent(self):
        assert codes("for x in {1, 2}:\n    print(x)\n", module_path=OUTSIDE) == []


# -- RL102: narrow float dtype --------------------------------------------


class TestNarrowFloatDtype:
    def test_np_float32_attribute_fires(self):
        assert codes("a = np.zeros(3, dtype=np.float32)\n") == ["RL102"]

    def test_astype_string_literal_fires(self):
        assert codes("b = a.astype('float32')\n") == ["RL102"]

    def test_dtype_keyword_string_fires(self):
        assert codes("c = np.zeros(3, dtype='float16')\n") == ["RL102"]

    def test_float64_is_silent(self):
        assert codes("a = np.zeros(3, dtype=np.float64)\n") == []

    def test_unrelated_string_is_silent(self):
        assert codes("label = 'float32 is banned here'\n") == []


# -- RL103: unstable merge sort -------------------------------------------


class TestUnstableMergeSort:
    # RL103's scope is the merge paths (search/batch/join + distributed +
    # serve), not every core module.
    def test_argsort_without_kind_fires(self):
        assert codes("order = np.argsort(scores)\n", module_path=DISTRIBUTED) == [
            "RL103"
        ]

    def test_sort_with_quicksort_fires(self):
        assert codes("np.sort(scores, kind='quicksort')\n", module_path=DISTRIBUTED) == [
            "RL103"
        ]

    def test_stable_kind_is_silent(self):
        assert codes("order = np.argsort(scores, kind='stable')\n", module_path=DISTRIBUTED) == []

    def test_argpartition_fires_whatever_its_kind(self):
        source = "top = np.argpartition(sims, len(sims) - k, kind='introselect')[-k:]\n"
        assert codes(source, module_path=DISTRIBUTED) == ["RL103"]

    def test_partition_for_the_kth_value_is_silent(self):
        source = "keep = sims >= np.partition(sims, len(sims) - k)[len(sims) - k]\n"
        assert codes(source, module_path=DISTRIBUTED) == []

    def test_python_sorted_is_silent(self):
        assert codes("order = sorted(scores)\n", module_path=DISTRIBUTED) == []

    def test_non_merge_module_is_silent(self):
        assert codes("order = np.argsort(scores)\n", module_path=OUTSIDE) == []


# -- RL201: unguarded executor --------------------------------------------


class TestUnguardedExecutor:
    def test_dangling_pool_fires(self):
        source = """
        def f(tasks):
            pool = ThreadPoolExecutor(4)
            return [pool.submit(t) for t in tasks]
        """
        assert codes(source, module_path=OUTSIDE) == ["RL201"]

    def test_with_block_is_silent(self):
        source = """
        def f(tasks):
            with ThreadPoolExecutor(4) as pool:
                return [pool.submit(t).result() for t in tasks]
        """
        assert codes(source, module_path=OUTSIDE) == []

    def test_finally_shutdown_is_silent(self):
        source = """
        def f(tasks):
            pool = ProcessPoolExecutor()
            try:
                return [pool.submit(t).result() for t in tasks]
            finally:
                pool.shutdown(wait=True)
        """
        assert codes(source, module_path=OUTSIDE) == []

    def test_stored_on_closing_class_is_silent(self):
        source = """
        class Engine:
            def start(self):
                self._pool = ThreadPoolExecutor(2)

            def close(self):
                self._pool.shutdown(wait=True)
        """
        assert codes(source, module_path=OUTSIDE) == []

    def test_stored_on_class_without_shutdown_fires(self):
        source = """
        class Engine:
            def start(self):
                self._pool = ThreadPoolExecutor(2)
        """
        assert codes(source, module_path=OUTSIDE) == ["RL201"]


# -- RL202: unlocked shared mutation --------------------------------------


class TestUnlockedSharedMutation:
    def test_off_lock_counter_fires(self):
        source = """
        class Cache:
            def __init__(self):
                self._lock = Lock()
                self.hits = 0

            def record(self):
                self.hits += 1
        """
        assert codes(source) == ["RL202"]

    def test_off_lock_container_method_fires(self):
        source = """
        class Cache:
            def __init__(self):
                self._lock = Lock()
                self.entries = {}

            def put(self, key, value):
                self.entries.update({key: value})
        """
        assert codes(source) == ["RL202"]

    def test_under_lock_is_silent(self):
        source = """
        class Cache:
            def __init__(self):
                self._lock = Lock()
                self.hits = 0

            def record(self):
                with self._lock:
                    self.hits += 1
        """
        assert codes(source) == []

    def test_init_is_exempt(self):
        source = """
        class Cache:
            def __init__(self):
                self._lock = Lock()
                self.hits = 0
        """
        assert codes(source) == []

    def test_unlocked_class_is_not_checked(self):
        source = """
        class Plain:
            def record(self):
                self.hits += 1
        """
        assert codes(source) == []

    def test_clock_attribute_is_not_a_lock(self):
        # "_breaker_clock" contains the letters l-o-c-k; the rule must
        # not treat the class as lock-guarded because of it.
        source = """
        class Breaker:
            def __init__(self):
                self._breaker_clock = monotonic

            def tick(self):
                self.count += 1
        """
        assert codes(source) == []


# -- RL203: shard fan-out without fault_point ------------------------------


class TestShardFanoutWithoutFaultPoint:
    def test_shard_submit_without_fault_point_fires(self):
        source = """
        def scatter(pool, shards):
            return [pool.submit(run, shard) for shard in shards]
        """
        assert codes(source, module_path=DISTRIBUTED) == ["RL203"]

    def test_fault_point_in_function_is_silent(self):
        source = """
        def scatter(pool, shards):
            futures = []
            for shard in shards:
                fault_point("shard.submit", str(shard))
                futures.append(pool.submit(run, shard))
            return futures
        """
        assert codes(source, module_path=DISTRIBUTED) == []

    def test_non_shard_submit_is_silent(self):
        source = """
        def scatter(pool, jobs):
            return [pool.submit(run, job) for job in jobs]
        """
        assert codes(source, module_path=DISTRIBUTED) == []

    def test_outside_distributed_is_silent(self):
        source = """
        def scatter(pool, shards):
            return [pool.submit(run, shard) for shard in shards]
        """
        assert codes(source, module_path=QUERY_PATH) == []


# -- RL301: save bypasses atomic_directory --------------------------------


class TestSaveBypassesAtomicDirectory:
    def test_os_replace_fires(self):
        assert codes("os.replace(stage, final)\n") == ["RL301"]

    def test_shutil_move_fires(self):
        assert codes("shutil.move(stage, final)\n") == ["RL301"]

    def test_persistence_module_is_exempt(self):
        assert (
            codes("os.replace(stage, final)\n", module_path="src/repro/core/persistence.py")
            == []
        )

    def test_plain_write_is_silent(self):
        assert codes("path.write_text(data)\n") == []


# -- RL302: retried fatal error -------------------------------------------


class TestRetriedFatalError:
    def test_catch_and_continue_in_loop_fires(self):
        source = """
        def pump(tasks):
            for task in tasks:
                try:
                    task()
                except PersistenceError:
                    continue
        """
        assert codes(source) == ["RL302"]

    def test_fatal_tuple_fires(self):
        source = """
        def pump(tasks):
            while tasks:
                try:
                    tasks.pop()()
                except (PersistenceError, DeadlineExceeded):
                    pass
        """
        assert codes(source) == ["RL302"]

    def test_reraise_idiom_is_silent(self):
        source = """
        def pump(tasks):
            for task in tasks:
                try:
                    task()
                except PersistenceError:
                    raise
        """
        assert codes(source) == []

    def test_boundary_translation_outside_loop_is_silent(self):
        source = """
        def handle(request):
            try:
                return run(request)
            except DeadlineExceeded:
                return timeout_response()
        """
        assert codes(source) == []

    def test_retrying_ordinary_errors_is_silent(self):
        source = """
        def pump(tasks):
            for task in tasks:
                try:
                    task()
                except OSError:
                    continue
        """
        assert codes(source) == []


# -- RL303: bare except ---------------------------------------------------


class TestBareExcept:
    def test_bare_except_fires(self):
        assert codes("try:\n    f()\nexcept:\n    pass\n", module_path=OUTSIDE) == [
            "RL303"
        ]

    def test_named_except_is_silent(self):
        assert (
            codes("try:\n    f()\nexcept ValueError:\n    pass\n", module_path=OUTSIDE)
            == []
        )


# -- RL304: dataset.bin mutated outside compaction ------------------------


class TestDatasetBinMutation:
    def test_writer_construction_fires(self):
        assert codes("ColumnarFileWriter(path).write(dataset)\n", ignore=["RL401", "RL402"]) == ["RL304"]

    def test_qualified_writer_construction_fires(self):
        source = "storage.ColumnarFileWriter(directory / 'dataset.bin')\n"
        assert codes(source, ignore=["RL401", "RL402"]) == ["RL304"]

    def test_open_for_write_fires(self):
        source = "handle = open(directory / DATASET_BIN, 'r+b')\n"
        assert codes(source, ignore=["RL401", "RL402"]) == ["RL304"]

    def test_path_open_append_fires(self):
        source = "(directory / 'dataset.bin').open('ab')\n"
        assert codes(source, ignore=["RL401", "RL402"]) == ["RL304"]

    def test_write_bytes_fires(self):
        source = "(directory / DATASET_BIN).write_bytes(payload)\n"
        assert codes(source, ignore=["RL401", "RL402"]) == ["RL304"]

    def test_read_only_open_is_silent(self):
        source = "handle = open(directory / DATASET_BIN, 'rb')\n"
        assert codes(source, ignore=["RL401", "RL402"]) == []

    def test_default_mode_open_is_silent(self):
        assert codes("data = (directory / 'dataset.bin').open()\n", ignore=["RL401", "RL402"]) == []

    def test_unrelated_write_is_silent(self):
        assert codes("open(directory / 'notes.txt', 'w')\n", ignore=["RL401", "RL402"]) == []

    def test_persistence_module_is_exempt(self):
        source = "ColumnarFileWriter(path).write(dataset)\n"
        assert (
            codes(source, module_path="src/repro/core/persistence.py",
                  ignore=["RL401", "RL402"]) == []
        )

    def test_columnar_file_module_is_exempt(self):
        source = "(path / 'dataset.bin').open('wb')\n"
        assert (
            codes(source, module_path="src/repro/storage/columnar_file.py",
                  ignore=["RL401", "RL402"])
            == []
        )


# -- RL401: unowned file handle -------------------------------------------


class TestUnownedFileHandle:
    def test_leaked_open_fires(self):
        source = """
        def read(path):
            handle = open(path)
            return handle.read()
        """
        assert codes(source) == ["RL401"]

    def test_leaked_memmap_fires(self):
        source = """
        def load(path):
            data = np.memmap(path, dtype="int64")
            return data.sum()
        """
        assert codes(source) == ["RL401"]

    def test_with_block_is_silent(self):
        source = """
        def read(path):
            with open(path) as handle:
                return handle.read()
        """
        assert codes(source) == []

    def test_closed_in_function_is_silent(self):
        source = """
        def read(path):
            handle = open(path)
            try:
                return handle.read()
            finally:
                handle.close()
        """
        assert codes(source) == []

    def test_stored_on_object_is_silent(self):
        source = """
        class Reader:
            def open(self, path):
                self._handle = open(path)
        """
        assert codes(source) == []

    def test_returned_handle_is_silent(self):
        source = """
        def open_log(path):
            return open(path, "a")
        """
        assert codes(source) == []


# -- RL402: untyped def in strict module ----------------------------------


class TestUntypedDefInStrictModule:
    @staticmethod
    def typing_codes(source: str, module_path: str = QUERY_PATH) -> list[str]:
        return codes(source, module_path=module_path, select=["RL402"], ignore=[])

    def test_missing_param_annotation_fires(self):
        source = """
        def score(shared, size: int) -> float:
            return shared / size
        """
        diagnostics = analyze_source(
            textwrap.dedent(source), module_path=QUERY_PATH, select=["RL402"]
        )
        assert [d.code for d in diagnostics] == ["RL402"]
        assert "shared" in diagnostics[0].message

    def test_missing_return_annotation_fires(self):
        source = """
        def score(shared: int, size: int):
            return shared / size
        """
        assert self.typing_codes(source) == ["RL402"]

    def test_fully_annotated_is_silent(self):
        source = """
        def score(shared: int, size: int) -> float:
            return shared / size
        """
        assert self.typing_codes(source) == []

    def test_self_needs_no_annotation(self):
        source = """
        class Measure:
            def score(self, shared: int) -> float:
                return float(shared)
        """
        assert self.typing_codes(source) == []

    def test_permissive_module_is_silent(self):
        source = """
        def score(shared, size):
            return shared / size
        """
        assert self.typing_codes(source, module_path=OUTSIDE) == []
