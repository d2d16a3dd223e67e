"""Ingestion tests: ordering provenance, reject accounting, canonical dumps."""

import gzip
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit.errors import IngestError
from recaudit.events import (
    CANONICAL_MAPPING,
    ColumnMapping,
    EventLog,
    ItemIndex,
    RawEvent,
    canonical_dump_text,
    detect_timestamp_resolution,
    dump_canonical,
    ingest_csv,
)
from synth import groups_of

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
        assert log.event_types() == {"click", "buy"}

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
        path = tmp_path / "log.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(csv_text(["u1,a,1", "u1,b,2"]))
        assert ingest_csv(path, MAPPING).num_events == 2


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

    def test_empty_log_resolution_detection_rejected(self):
        with pytest.raises(IngestError, match="empty"):
            detect_timestamp_resolution(EventLog.from_events([]))


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

    def test_negative_epoch_rejected(self):
        rows = [f"u1,i{k},{k}" for k in range(200)] + ["u1,x,-5"]
        log = ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        assert log.rejected_count == 1

    def test_timestamp_beyond_64_bits_rejected(self):
        rows = [f"u1,i{k},{k}" for k in range(200)] + ["u1,x,99999999999999999999"]
        log = ingest_csv(io.StringIO(csv_text(rows)), MAPPING)
        assert log.rejected_count == 1
        assert "64 bits" in log.rejected_preview[0]

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


class TestCanonicalDump:
    def test_roundtrip_preserves_log(self, tmp_path):
        text = csv_text(["u2,b,10,v", "u1,a,30,", "u1,c,20,w"], header="user,item,ts,kind")
        log = ingest_csv(io.StringIO(text), MAPPING_TYPED)
        path = tmp_path / "canon.tsv"
        dump_canonical(log, path)
        again = ingest_csv(path, CANONICAL_MAPPING)
        assert groups_of(again) == groups_of(log)

    def test_dump_orders_by_entity_then_time(self):
        text = csv_text(["u2,b,10", "u1,a,30", "u1,c,20"])
        log = ingest_csv(io.StringIO(text), MAPPING)
        lines = canonical_dump_text(log).splitlines()
        assert lines[0] == "entity\titem\ttimestamp\ttype"
        assert lines[1:] == ["u1\tc\t20\t", "u1\ta\t30\t", "u2\tb\t10\t"]


events_strategy = st.lists(
    st.builds(
        RawEvent,
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
        log = EventLog.from_events(events)
        assert sorted(log.iter_events(), key=repr) == sorted(events, key=repr)

    @given(events_strategy)
    @settings(max_examples=60, deadline=None)
    def test_groups_sorted_by_timestamp(self, events):
        log = EventLog.from_events(events)
        for group in groups_of(log).values():
            times = [e.timestamp for e in group]
            assert times == sorted(times)

    @given(events_strategy.filter(lambda evs: len(evs) > 0))
    @settings(max_examples=60, deadline=None)
    def test_canonical_dump_reingests_to_itself(self, events):
        log = EventLog.from_events(events)
        text = canonical_dump_text(log)
        again = ingest_csv(text.encode(), CANONICAL_MAPPING)
        assert canonical_dump_text(again) == text

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


class TestItemIndex:
    def test_sorted_dense_and_bijective(self):
        index = ItemIndex.from_items(["pear", "apple", "pear", "fig"])
        assert index.reverse == ("apple", "fig", "pear")
        assert index.forward == {"apple": 0, "fig": 1, "pear": 2}
        assert len(index) == 3
        assert "fig" in index and "kiwi" not in index

    def test_raw_event_validation(self):
        with pytest.raises(ValueError):
            RawEvent("", "a", 1)
        with pytest.raises(ValueError):
            RawEvent("u", "", 1)
        with pytest.raises(ValueError):
            RawEvent("u", "a", -1)
