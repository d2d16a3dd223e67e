"""Ingestion tests: ordering provenance, reject accounting, canonical dumps."""

import csv
import dataclasses
import gzip
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit.cli import main
from recaudit.errors import IngestError, PreprocessError
from recaudit.events import ColumnMapping, EventLog, dump_canonical, ingest_csv
from recaudit.preprocess import PipelineConfig, preprocess
from recaudit.splitting import STRATEGY_LOO, SplitSpec, apply_split
from synth import (
    CANONICAL_MAPPING, EventRecord, canonical_text, event_log, events_of, groups_of, records,
)

MAPPING = ColumnMapping(entity="user", item="item", time="ts")
MAPPING_TYPED = ColumnMapping(entity="user", item="item", time="ts", type="kind")


def csv_text(rows, header="user,item,ts"):
    return "\n".join([header, *rows]) + "\n"


class TestIngestBasics:
    def test_groups_by_entity_and_sorts_by_time(self):
        text = csv_text(["u1,a,30", "u2,b,10", "u1,c,20"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert log.num_events == 3
        assert [e.item_id for e in groups_of(log)["u1"]] == ["c", "a"]
        assert [e.item_id for e in groups_of(log)["u2"]] == ["b"]

    def test_equal_timestamps_keep_input_order(self):
        text = csv_text(["u1,i9,100", "u1,i3,100"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert [e.item_id for e in groups_of(log)["u1"]] == ["i9", "i3"]

    def test_equal_timestamps_keep_input_order_after_reordering_rows(self):
        text = csv_text(["u1,i3,100", "u1,i9,100"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert [e.item_id for e in groups_of(log)["u1"]] == ["i3", "i9"]

    def test_type_column_optional_and_blank_becomes_none(self):
        text = csv_text(
            ["u1,a,1,click", "u1,b,2,", "u1,c,3,buy"],
            header="user,item,ts,kind",
        )
        log = ingest_csv(io.StringIO(text), MAPPING_TYPED)
        kinds = [e.event_type for e in groups_of(log)["u1"]]
        assert kinds == ["click", None, "buy"]
        assert log.event_type_ids == ("buy", "click")

    def test_tab_delimiter_autodetected(self):
        text = "user\titem\tts\nu1\ta\t5\n"
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert groups_of(log)["u1"][0].item_id == "a"

    def test_forced_delimiter_overrides_detection(self):
        # Commas inside a tab-separated file must not split fields.
        text = "user\titem\tts\nu1\ta,b\t5\n"
        log = ingest_csv(io.StringIO(text), MAPPING, delimiter="\t")
        assert groups_of(log)["u1"][0].item_id == "a,b"

    def test_accepts_path_bytes_and_stream(self, tmp_path):
        text = csv_text(["u1,a,1"])
        path = tmp_path / "log.csv"
        path.write_text(text)
        for source in (path, str(path), text.encode(), io.StringIO(text)):
            assert ingest_csv(source, MAPPING).num_events == 1

    def test_gzip_path(self, tmp_path):
        text = csv_text(["u2,c,9,buy", "u1,a,1,", "u1,b,2,click", "u1,b,x,click"],
                        header="user,item,ts,kind")
        plain_path, gzip_path = tmp_path / "log.csv", tmp_path / "log.csv.gz"
        plain_path.write_text(text)
        with gzip.open(gzip_path, "wt") as fh:
            fh.write(text)
        plain, gzipped = (
            ingest_csv(path, MAPPING_TYPED, max_reject_fraction=0.5)
            for path in (plain_path, gzip_path)
        )
        assert gzipped.num_events == 3
        for column in dataclasses.fields(plain):
            expected, got = getattr(plain, column.name), getattr(gzipped, column.name)
            if isinstance(expected, np.ndarray):
                assert np.array_equal(got, expected) and got.dtype == expected.dtype, column
            else:
                assert got == expected, column.name

    @pytest.mark.parametrize("suffix", (".csv", ".csv.gz"))
    @pytest.mark.parametrize("newline", ("\n", "\r\n"), ids=("lf", "crlf"))
    def test_a_quoted_cr_survives_ingest_and_the_dump(self, tmp_path, suffix, newline):
        lines = ["entity,item,timestamp", 'u1,"a\rb",1', 'u1,"c\r\nd",2', "u1,e,3"]
        path = tmp_path / f"cr{suffix}"
        with (gzip.open if suffix.endswith(".gz") else open)(path, "wb") as handle:
            handle.write((newline.join(lines) + newline).encode("utf-8"))
        outdir = tmp_path / "out"
        assert main(["ingest", "--input", str(path), "--output-dir", str(outdir)]) == 0
        dumped = ingest_csv(outdir / "canonical_events.tsv", CANONICAL_MAPPING)
        assert [e.item_id for e in groups_of(dumped)["u1"]] == ["a\rb", "c\r\nd", "e"]

    def test_a_file_reads_as_its_bytes_do(self, tmp_path):
        # CRLF line ends read as LF ones; a stray unquoted CR still ends a line
        rows = ["u1,a,1", "u1,b,2", "u2,x\r5,3", "u2,c,4"] + [f"u3,i{k},{k}" for k in range(9)]
        text = csv_text(rows)
        path = tmp_path / "log.csv"
        logs = []
        for data in (text, text.replace("\n", "\r\n")):
            path.write_bytes(data.encode("utf-8"))
            logs.append(ingest_csv(path, MAPPING, max_reject_fraction=0.5))
        logs.append(ingest_csv(text.replace("\r", "\n").encode("utf-8"), MAPPING,
                               max_reject_fraction=0.5))
        for log in logs:
            assert canonical_text(log) == canonical_text(logs[0])
            assert log.rejected_preview == logs[0].rejected_preview
        assert logs[0].rejected_count == 2 and logs[0].num_events == 12


class TestTimestampParsing:
    def test_iso_date_is_midnight_utc(self):
        text = csv_text(["u1,a,2020-01-02"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert groups_of(log)["u1"][0].timestamp == 1577923200
        assert log.timestamp_resolution == "days"

    def test_iso_datetime_with_zulu_suffix(self):
        text = csv_text(["u1,a,1970-01-01T00:01:40Z"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert groups_of(log)["u1"][0].timestamp == 100

    def test_iso_datetime_with_offset(self):
        text = csv_text(["u1,a,1970-01-01T02:00:00+02:00"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert groups_of(log)["u1"][0].timestamp == 0

    def test_naive_datetime_assumed_utc(self):
        text = csv_text(["u1,a,1970-01-02T00:00:30"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert groups_of(log)["u1"][0].timestamp == 86430

    def test_resolution_seconds_when_any_offset_within_day(self):
        text = csv_text(["u1,a,86400", "u1,b,86401"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert log.timestamp_resolution == "seconds"

    def test_resolution_days_when_all_on_boundaries(self):
        text = csv_text(["u1,a,0", "u1,b,86400", "u2,c,172800"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        assert log.timestamp_resolution == "days"


class TestRejectAccounting:
    def test_malformed_rows_below_threshold_are_counted(self):
        rows = [f"u1,i{k},{k}" for k in range(1, 300)] + ["u1,bad,notatime", "u1,,5"]
        log = ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        assert log.rejected_count == 2
        assert log.num_events == 299
        assert any("notatime" in msg for msg in log.rejected_preview)

    def test_too_many_malformed_rows_fail_with_offender_preview(self):
        rows = ["u1,a,1"] + [f"u1,i{k},broken" for k in range(30)]
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        try:
            ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        except IngestError as exc:
            assert str(exc).count("line ") == 10

    @pytest.mark.parametrize("fraction", [float("nan"), -0.01, float("-inf")])
    def test_nan_or_negative_reject_fraction_is_refused(self, fraction):
        # a NaN bound would switch the malformed-row gate off
        rows = ["u1,a,1"] + [f"u1,i{k},broken" for k in range(30)]
        with pytest.raises(ValueError, match="max_reject_fraction must be non-negative"):
            ingest_csv(io.StringIO(csv_text(rows)), MAPPING, max_reject_fraction=fraction)

    def test_negative_epoch_rejected(self):
        rows = [f"u1,i{k},{k}" for k in range(200)] + ["u1,x,-5"]
        log = ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        assert log.rejected_count == 1

    def test_timestamp_beyond_64_bits_rejected(self):
        rows = [f"u1,i{k},{k}" for k in range(200)] + ["u1,x,99999999999999999999"]
        log = ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        assert log.rejected_count == 1
        assert "64 bits" in log.rejected_preview[0]

    @pytest.mark.parametrize(
        "raw", ["1_672_750_702", "\u0661\u0662\u0663", "\uff11\uff12\uff13", "+-5"]
    )
    def test_epoch_seconds_take_ascii_digits_only(self, raw):
        # int() reads these as 1672750702 and 123; they are no epoch seconds
        rows = [f"u1,i{k},{k}" for k in range(200)] + [f"u1,x,{raw}"]
        log = ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        assert log.num_events == 200
        assert log.rejected_preview == (
            f"line 202: timestamp {raw!r} is neither epoch seconds nor ISO-8601",
        )

    def test_signed_epoch_seconds_still_parse(self):
        rows = [f"u1,i{k},{k}" for k in range(200)] + ["u1,x,+7", "u1,y, -7 "]
        log = ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        assert [e.timestamp for e in groups_of(log)["u1"] if e.item_id == "x"] == [7]
        assert log.rejected_preview == ("line 203: negative timestamp -7",)

    def test_short_rows_rejected_not_crashing(self):
        rows = [f"u1,i{k},{k}" for k in range(200)] + ["u1,a"]
        log = ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        assert log.rejected_count == 1

    def test_missing_column_is_hard_error(self):
        text = csv_text(["u1,a,1"], header="user,thing,ts")
        with pytest.raises(IngestError, match="'item'"):
            ingest_csv(io.StringIO(text), MAPPING)

    def test_empty_input_is_hard_error(self):
        with pytest.raises(IngestError, match="header"):
            ingest_csv(io.StringIO(""), MAPPING)

    def test_unterminated_quote_past_field_limit_is_hard_error(self):
        # the open quote swallows every later row into one oversized field
        rows = ['u1,"a,1'] + [f"u1,i{k},{k}" for k in range(20000)]
        with pytest.raises(IngestError, match="cannot parse input near line"):
            ingest_csv(io.StringIO(csv_text(rows)), MAPPING)

    def test_non_utf8_input_is_hard_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"user,item,ts\nu1,caf\xe9,5\n")
        with pytest.raises(IngestError, match="cannot read input"):
            ingest_csv(path, MAPPING)

    def test_unreadable_path_is_hard_error(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest_csv(tmp_path / "nope.csv", MAPPING)


class TestIngestMemory:
    def test_peak_follows_the_columns_not_the_rows(self, tmp_path):
        # 50k typed rows over 300 entities, 400 items and 3 types: the codes
        # and timestamps take 32 bytes a row, where keeping each row's id
        # strings and timestamp as Python objects takes about 290
        rows = 50_000
        kinds = ("view", "buy", "")
        path = tmp_path / "events.csv"
        path.write_text(
            "user,item,ts,kind\n"
            + "".join(
                f"u{k % 300},i{k * 7 % 400},{1_600_000_000 + k * 7919 % 10**6},{kinds[k % 3]}\n"
                for k in range(rows)
            )
        )
        tracemalloc.start()
        try:
            log = ingest_csv(path, MAPPING_TYPED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (log.num_events, log.num_entities, len(log.item_ids)) == (rows, 300, 400)
        assert peak < 128 * rows


class TestCanonicalDump:
    def test_roundtrip_preserves_log(self, tmp_path):
        text = csv_text(["u2,b,10,v", "u1,a,30,", "u1,c,20,w"], header="user,item,ts,kind")
        log = ingest_csv(io.StringIO(text), MAPPING_TYPED)
        path = tmp_path / "canon.tsv"
        with open(path, "w", encoding="utf-8", newline="") as stream:
            dump_canonical(log, stream)
        again = ingest_csv(path, CANONICAL_MAPPING)
        assert groups_of(again) == groups_of(log)

    def test_dump_orders_by_entity_then_time(self):
        text = csv_text(["u2,b,10", "u1,a,30", "u1,c,20"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        lines = canonical_text(log).splitlines()
        assert lines[0] == "entity\titem\ttimestamp\ttype"
        assert lines[1:] == ["u1\tc\t20\t", "u1\ta\t30\t", "u2\tb\t10\t"]


def quoting_logs(alphabet):
    """Event records whose entity, item and type ids are drawn from ``alphabet``."""
    ids = st.text(alphabet=alphabet, min_size=1, max_size=3)
    return st.lists(
        st.builds(
            EventRecord,
            entity_id=st.sampled_from(["u1", "u2", "u3"]) | ids,
            item_id=st.sampled_from(["a", "b", "c"]) | ids,
            timestamp=st.integers(min_value=0, max_value=50),
            event_type=st.none() | ids,
        ),
        min_size=1,
        max_size=30,
    )


def read_tsv(text):
    return list(csv.reader(io.StringIO(text, newline=""), delimiter="\t"))


def csv_writer_line(row):
    """``row`` as ``csv.writer(delimiter="\\t")`` writes it, ended by a newline.

    Under its default ``"\\r\\n"`` terminator the writer quotes a field holding
    a CR, which ``csv.reader`` would otherwise end a row at.
    """
    buffer = io.StringIO()
    csv.writer(buffer, delimiter="\t").writerow(row)
    return buffer.getvalue()[: -len("\r\n")] + "\n"


class TestDumpQuoting:
    """Every dump quotes an id as ``csv.writer(delimiter="\\t")`` writes it."""

    @given(quoting_logs('ab\t"\r\n, '))
    @settings(max_examples=150, deadline=None)
    def test_canonical_dump_is_what_csv_writer_writes(self, events):
        log = event_log(events)
        rows = [("entity", "item", "timestamp", "type")] + [
            (e.entity_id, e.item_id, e.timestamp, e.event_type or "") for e in events_of(log)
        ]
        assert canonical_text(log) == "".join(map(csv_writer_line, rows))

    def test_an_id_holding_a_cr_reads_back(self):
        log = EventLog.from_columns(["u1", "u1"], ["a\rb", "c"], [1, 2])
        again = ingest_csv(canonical_text(log).encode("utf-8"), CANONICAL_MAPPING)
        assert groups_of(again) == groups_of(log)
        assert canonical_text(again) == canonical_text(log)

    @given(quoting_logs('ab\t"\r\n, '))
    @settings(max_examples=150, deadline=None)
    def test_dataset_and_split_dumps_read_back_as_their_fields(self, events):
        try:
            data = preprocess(event_log(events), PipelineConfig(min_item_support=1))
        except PreprocessError:  # no sequence of two events survives
            return
        split = apply_split(data, SplitSpec(STRATEGY_LOO))
        for dataset in (data, split.train, split.test):
            expected = [["seq_id", "entity", "item", "timestamp"]] + [
                [str(seq.seq_id), seq.entity_id, data.item_ids[code], str(ts)]
                for seq in records(dataset)
                for code, ts in zip(seq.items.tolist(), seq.timestamps.tolist())
            ]
            assert read_tsv(canonical_text(dataset)) == expected

    def test_an_id_holding_a_tab_keeps_every_row_at_four_fields(self, tmp_path):
        rows = [(f"u{k % 20}", "i\t3" if k % 7 == 3 else f"i{k % 7}", k) for k in range(240)]
        path = tmp_path / "events.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([("entity", "item", "timestamp"), *rows])
        loo = ["--strategy", "loo"]
        for command, flags, code, names in (
            ("preprocess", [], 0, ("dataset.tsv",)),
            ("split", loo, 2, ("train.tsv", "test.tsv")),  # 2: W-LOO-LEAKAGE
        ):
            outdir = tmp_path / command
            argv = [command, "--input", str(path), "--output-dir", str(outdir),
                    "--min-item-support", "1", *flags]
            assert main(argv) == code
            for name in names:
                dumped = read_tsv((outdir / name).read_text(encoding="utf-8"))
                assert {len(row) for row in dumped} == {4}, name
                assert "i\t3" in {row[2] for row in dumped}, name


events_strategy = st.lists(
    st.builds(
        EventRecord,
        entity_id=st.sampled_from(["u1", "u2", "u3"]),
        item_id=st.sampled_from([f"i{k}" for k in range(8)]),
        timestamp=st.integers(min_value=0, max_value=500),
        event_type=st.sampled_from([None, "view", "buy"]),
    ),
    max_size=40,
)


class TestProperties:
    @given(events_strategy)
    @settings(max_examples=60, deadline=None)
    def test_grouping_is_lossless(self, events):
        log = event_log(events)
        assert sorted(events_of(log), key=repr) == sorted(events, key=repr)

    @given(events_strategy)
    @settings(max_examples=60, deadline=None)
    def test_groups_sorted_by_timestamp(self, events):
        log = event_log(events)
        for group in groups_of(log).values():
            times = [e.timestamp for e in group]
            assert times == sorted(times)

    @given(events_strategy.filter(lambda evs: len(evs) > 0))
    @settings(max_examples=60, deadline=None)
    def test_canonical_dump_reingests_to_itself(self, events):
        log = event_log(events)
        text = canonical_text(log)
        again = ingest_csv(text.encode(), CANONICAL_MAPPING)
        assert canonical_text(again) == text

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2"]),
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=30,
            unique_by=lambda row: row[2],
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_distinct_timestamp_rows_ingest_order_free(self, rows, rng):
        # With no timestamp ties the input order cannot matter.
        shuffled = list(rows)
        rng.shuffle(shuffled)
        make = lambda rs: csv_text([f"{u},{i},{t}" for u, i, t in rs])
        log_a = ingest_csv(io.StringIO(make(rows)), MAPPING)
        log_b = ingest_csv(io.StringIO(make(shuffled)), MAPPING)
        assert groups_of(log_a) == groups_of(log_b)
