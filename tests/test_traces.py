import codecs
import csv
import io
import os
import random
import tempfile
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from carbonrun import traces
from carbonrun.traces import EnergyCounterReading, TraceError, TraceSource, parse_trace

from conftest import MAX_RANGE_UJ, constant_trace
from trace_reference import reference_parse, reference_totals


def totals(source):
    """Joules, seconds, kept pairs, dropped pairs and span of a replay."""
    return (*source.energy, source.span_s)


def test_parse_groups_rows_into_instants():
    instants = parse_trace(constant_trace(5.0, 3, domains=("a", "b")))
    assert len(instants) == 4
    assert set(instants[0]) == {"a", "b"}
    assert instants[1]["a"].energy_uj == 5_000_000


def test_header_row_tolerated():
    text = "timestamp_s,domain_id,energy_uj,max_range_uj\n" + constant_trace(1.0, 2)
    assert len(parse_trace(text)) == 3


def test_span_covers_recording():
    source = TraceSource.from_csv(constant_trace(1.0, 30, interval_s=0.5))
    assert source.span_s == pytest.approx(30.0)


def test_replay_folds_every_pair_of_the_trace():
    assert totals(TraceSource.from_csv(constant_trace(1.0, 2))) == (2.0, 2.0, 2, 0, 2.0)


def test_from_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(constant_trace(2.0, 5))
    assert TraceSource.from_file(str(path)).span_s == pytest.approx(5.0)


# a counter, then a range, one past the largest a trace may hold
BEYOND_64_BITS = [
    f"0,pkg-0,{2**63},100\n1,pkg-0,{2**63 + 5},100\n",
    f"0,pkg-0,0,{2**63}\n1,pkg-0,5,{2**63}\n",
]
MALFORMED_TRACES = [
    "0,pkg-0,0\n1,pkg-0,10\n",  # wrong field count
    "0,pkg-0,zero,100\n1,pkg-0,10,100\n",  # non-numeric energy
    "1,pkg-0,0,100\n0,pkg-0,10,100\n",  # decreasing time
    "0,pkg-0,0,100\n",  # single instant
    "0,pkg-0,0,100\n0,pkg-0,5,100\n1,pkg-0,9,100\n",  # repeated domain
    "0,pkg-0,0,100\n1,pkg-1,5,100\n",  # inconsistent domain sets
    "0,pkg-0,0,100\n1,pkg-0,5,100\nnan,pkg-0,9,100\n",  # timestamp not a number
    "0,pkg-0,0,100\ninf,pkg-0,5,100\n",  # infinite timestamp
    "0,pkg-0,-5,100\n1,pkg-0,5,100\n",  # negative counter
    *BEYOND_64_BITS,
    "-1e308,pkg-0,0,100\n1e308,pkg-0,5000000,100\n",  # a span beyond a float
    "0,a,1,10\n0,b,1,10\n1,a,2,10\n",  # the trace ends inside an instant
]

# a power, then a power times the span, beyond a float: 9e12 J over
# 1e-300 s; and 9e12 J over 1e-290 s, then a pair 1e10 s long that is dropped
NON_FINITE_ENERGY_TRACES = [
    ("0,pkg-0,0,100\n1e-300,pkg-0,9000000000000000000,100\n",
     "the trace's power, 9000000000000.0 J over 1e-300 s, is not finite"),
    ("0,pkg-0,0,100\n1e-290,pkg-0,9000000000000000000,100\n1e10,pkg-0,0,100\n",
     "the trace's energy, 8.999999999999999e+302 W over 10000000000.0 s, is not finite"),
]

# the bytes of a file that is not UTF-8 text
NON_UTF8_TRACE = b"0,pkg-0,0,100\n1,pkg-\xff0,5,100\n"


@pytest.mark.parametrize("text", MALFORMED_TRACES)
def test_malformed_traces_rejected(text):
    with pytest.raises(TraceError) as expected:
        reference_parse(text)
    for parse in (TraceSource.from_csv, parse_trace):
        with pytest.raises(TraceError) as err:
            parse(text)
        assert str(err.value) == str(expected.value)


def test_a_span_beyond_a_float_fails_on_the_line_that_reaches_it():
    # each timestamp is finite, but the time between them is not
    text = "-1e308,pkg-0,0,100\n0,pkg-0,1,100\n1e308,pkg-0,5000000,100\n"
    message = r"^line 3: the span from -1e\+308 to 1e\+308 is not finite$"
    with pytest.raises(TraceError, match=message):
        TraceSource.from_csv(text)
    with pytest.raises(TraceError, match=message):
        reference_parse(text)


@pytest.mark.parametrize("text,message", NON_FINITE_ENERGY_TRACES)
def test_a_power_or_an_energy_beyond_a_float_is_rejected(text, message):
    for replay in (TraceSource.from_csv, reference_totals):
        with pytest.raises(TraceError) as err:
            replay(text)
        assert str(err.value) == message


@pytest.mark.parametrize("text", BEYOND_64_BITS)
def test_values_beyond_64_bits_fail_on_their_line(text):
    for parse in (TraceSource.from_csv, parse_trace):
        with pytest.raises(TraceError, match="^line 1: counter values out of range$"):
            parse(text)


# two defects, of which a row-by-row reading names the one on the first
# line: at the default chunk size, both in one batch, the later one a value
# that does not convert or a row of three fields; at 16 characters, a
# foreign domain ends one batch and a bad counter begins the next
TWO_DEFECT_TRACES = [
    ("0,a,1,10\n0,a,2,10\n0,b,x,10\n1,a,3,10\n1,b,4,10\n",
     "line 2: domain a repeated at 0.0"),
    ("0,a,1,10\n0,b,2,10\n1,a,3,10\n1,a,4,10\n1,b,x,10\n2,a,3,10\n2,b,4,10\n",
     "line 4: domain a repeated at 1.0"),
    ("0,a,1,10\n0,a,2,10\n0,b,3\n1,a,3,10\n1,b,4,10\n",
     "line 2: domain a repeated at 0.0"),
    ("0,a,1,10\n0,b,1,10\n1,a,2,10\n1,c,2,10\n2,a,-5,10\n2,b,3,10\n",
     "line 5: counter values out of range"),
]


@pytest.mark.parametrize("text,message", TWO_DEFECT_TRACES)
def test_two_defects_in_one_batch_name_the_first_line(text, message, monkeypatch):
    for chunk_chars in (traces._CHUNK_CHARS, 16):
        monkeypatch.setattr(traces, "_CHUNK_CHARS", chunk_chars)
        for parse in (TraceSource.from_csv, parse_trace, reference_parse):
            with pytest.raises(TraceError) as err:
                parse(text)
            assert str(err.value) == message


@pytest.mark.parametrize("header", ["timestamp_s,domain_id,energy_uj,max_range_uj\n", ""])
def test_a_byte_order_mark_is_dropped(tmp_path, header):
    # as a spreadsheet's "CSV UTF-8" saves a trace
    text = header + constant_trace(2.0, 5)
    path = tmp_path / "t.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert TraceSource.from_file(str(path)).energy == TraceSource.from_csv(text).energy


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(NON_UTF8_TRACE)
    with pytest.raises(TraceError, match="not UTF-8"):
        TraceSource.from_file(str(path))


def test_csv_error_becomes_trace_error():
    oversized = "1" * (csv.field_size_limit() + 1)
    for parse in (TraceSource.from_csv, parse_trace, reference_parse):
        with pytest.raises(TraceError, match="^line 1: field larger than field limit"):
            parse(f"0,pkg-0,{oversized},100\n1,pkg-0,5,100\n")


def test_instants_carry_every_reading():
    text = constant_trace(3.0, 4, domains=("a", "b"))
    instants = parse_trace(text)
    assert instants == reference_parse(text)
    assert instants[2]["b"] == EnergyCounterReading("b", 6_000_000, MAX_RANGE_UJ, 2.0)


def test_instants_may_list_domains_in_any_order():
    text = "0,a,0,100\n0,b,0,100\n1,b,7,100\n1,a,5,100\n"
    instants = parse_trace(text)
    assert (instants[1]["a"].energy_uj, instants[1]["b"].energy_uj) == (5, 7)
    assert instants == reference_parse(text)
    assert totals(TraceSource.from_csv(text)) == reference_totals(text)


def test_line_numbers_count_records_after_a_quoted_line_break():
    text = '0,"pkg\n-0",0,100\n1,"pkg\n-0",5,100\n2,pkg-0,x,100\n'
    for parse in (TraceSource.from_csv, parse_trace):
        with pytest.raises(TraceError, match="^line 3: invalid literal"):
            parse(text)


def test_lone_carriage_returns_end_lines():
    text = "0,pkg-0,0,100\r1,pkg-0,5,100\r"
    assert parse_trace(text) == reference_parse(text)
    assert totals(TraceSource.from_csv(text)) == reference_totals(text)


def _batch_sizes(monkeypatch):
    """Record the number of rows in each batch the loader reads."""
    sizes = []
    batches = traces._batches

    def recording(fh):
        for batch in batches(fh):
            sizes.append(len(batch[1]))
            yield batch

    monkeypatch.setattr(traces, "_batches", recording)
    return sizes


def test_a_quoted_line_break_at_every_chunk_border_reads_one_record_on(monkeypatch):
    # ten-character lines, two to a record, and two lines to a chunk: cut at
    # fixed places, every chunk after the header would end inside a quote
    records = [f'{t:06d},"d\n{d}",{t:04d},1\n' for t in range(200) for d in (0, 1)]
    text = "timestamp\n" + "".join(records)
    monkeypatch.setattr(traces, "_CHUNK_CHARS", 20)
    sizes = _batch_sizes(monkeypatch)
    assert totals(TraceSource.from_csv(text)) == reference_totals(text)
    assert len(sizes) == 400 and max(sizes) == 1
    assert parse_trace(text) == reference_parse(text)


def test_a_first_instant_longer_than_many_chunks(monkeypatch):
    domains = [f"d{i}" for i in range(300)]
    text = constant_trace(1.0, 2, domains=domains)
    monkeypatch.setattr(traces, "_CHUNK_CHARS", 64)
    sizes = _batch_sizes(monkeypatch)
    assert parse_trace(text) == reference_parse(text)
    assert totals(TraceSource.from_csv(text)) == reference_totals(text)
    assert len(sizes) > 30
    for parse in (TraceSource.from_csv, parse_trace):
        with pytest.raises(TraceError, match=r"^line 300: domain d0 repeated at 0\.0$"):
            parse(text.replace("d299,", "d0,", 1))
        # a repeat in a first instant that never ends fails before the rest is read
        del sizes[:]
        with pytest.raises(TraceError, match=r"^line 2: domain d0 repeated at 0\.0$"):
            parse("".join(f"0,{d},0,1\n" for d in ["d0"] + domains))
        assert len(sizes) == 1


# generated traces: their domains, and the defects of MALFORMED_TRACES plus a dropped row
DOMAINS = ("pkg-0", "pkg-1", "dram")
DEFECTS = ("fields", "number", "decrease", "single", "repeat", "domain", "drop",
           "nan", "inf", "negative", "beyond_64_bits", "span")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _apply(defect, rows, at):
    """Give `rows` (lists of field texts) one defect of kind `defect` at row `at`."""
    row = rows[at]
    if defect == "fields":
        rows[at] = row[:3] if at % 2 else row + ["7"]
    elif defect == "number":
        row[(0, 2, 3)[at % 3]] = ("zero", "1.2.3", "")[at % 3]
    elif defect == "decrease":
        row[0] = "-1"  # before every instant
    elif defect == "single":  # only the first instant is left
        first = float(rows[0][0])
        del rows[next((i for i, r in enumerate(rows) if float(r[0]) != first), None):]
    elif defect == "repeat":
        rows.insert(at, list(row))
    elif defect == "domain":
        row[1] = "gpu"
    elif defect == "drop":
        del rows[at]
    elif defect in ("nan", "inf"):
        row[0] = defect if at % 2 else f"-{defect}"
    elif defect == "negative":
        row[2] = "-5"
    elif defect == "span":  # the first instant and the last 2e308 s apart
        ends = {_number(rows[0][0]): "-1e308", _number(rows[-1][0]): "1e308"}
        for r in rows:
            r[0] = ends.get(_number(r[0]), r[0])
    else:
        row[2 + at % 2] = str(2**63 + at)


@st.composite
def trace_texts(draw):
    """CSV text of a random trace, with up to two defects."""
    width = draw(st.integers(1, len(DOMAINS)))
    stamps = draw(st.lists(st.integers(1, 500), min_size=2, max_size=6))
    ranges = draw(st.lists(st.integers(1, 10**12), min_size=width, max_size=width))
    rows, t = [], draw(st.integers(0, 1000))
    for step in stamps:
        t += step
        order = draw(st.permutations(DOMAINS[:width]))
        for domain in order:
            stamp = draw(st.sampled_from([f"{t / 100}", f"{t}e-2", f" {t / 100:.4f}"]))
            energy = draw(st.integers(0, 10**13))
            rows.append([stamp, domain, str(energy), str(ranges[DOMAINS.index(domain)])])
    defects = draw(st.lists(st.tuples(st.sampled_from(DEFECTS), st.integers(0, 10**6)),
                            max_size=2))
    # a single instant is cut from a whole trace, and fields go last
    for defect, at in sorted(defects, key=lambda d: {"single": 0, "fields": 2}.get(d[0], 1)):
        if rows:
            _apply(defect, rows, at % len(rows))
    lines = ["timestamp_s,domain_id,energy_uj,max_range_uj"] if draw(st.booleans()) else []
    styles = ["plain", "plain", "padded"]
    if draw(st.booleans()):  # csv.reader tokenises chunks holding quotes
        styles += ["quoted", "quoted_break"]
    for row in rows:
        fields = []
        for field in row:
            style = draw(st.sampled_from(styles))
            if style == "padded":
                field = f" {field}\t"
            elif style == "quoted":
                field = f'"{field}"'
            elif style == "quoted_break":
                field = f'"{field}\n"'
            fields.append(field)
        lines.append(",".join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except TraceError as exc:
        return f"TraceError: {exc}"


def _replay_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        return totals(TraceSource.from_file(path))


def _replay_csv(text):
    return totals(TraceSource.from_csv(text))


# 300 examples, or as many as `--hypothesis-profile deep` asks for (conftest.py)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(text=trace_texts(), chunk_chars=st.sampled_from([16, 64, 32 * 1024]))
def test_columnar_loader_agrees_with_row_by_row_reference(text, chunk_chars):
    # small chunks cut instants, and pairs that wrap, at chunk borders
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "_CHUNK_CHARS", chunk_chars)
        for parse, reference in ((parse_trace, reference_parse),
                                 (_replay_csv, reference_totals),
                                 (_replay_file, reference_totals)):
            assert _outcome(parse, text) == _outcome(reference, text)


def _border_rows():
    """The rows (lists of field texts) of a 3000-instant three-domain trace,
    and the index of the line a default-size chunk border cuts: the last of
    the second chunk, finished by a read on to its line break."""
    rows = [[f"{t / 100}", domain, str(10**9 * (d + 1) + 4321 * t * (d + 1)), str(10**12)]
            for t in range(1000, 1000 + 7 * 3000, 7) for d, domain in enumerate(DOMAINS)]
    text = "".join(",".join(row) + "\n" for row in rows)
    chunks = traces._chunks(io.StringIO(text))
    return rows, sum(next(chunks).count("\n") for _ in range(2)) - 1


def _irregular(kind, rows, at):
    """Give `rows` one irregularity that a valid trace may hold, at row `at`."""
    row = rows[at]
    if kind == "padded_domain":
        row[1] = f" {row[1]}\t"
    elif kind == "reordered_instant":
        first = at - at % len(DOMAINS)
        rows[first:first + len(DOMAINS)] = rows[first:first + len(DOMAINS)][::-1]
    elif kind == "timestamp_spelling":  # the same float, written another way
        row[0] = f"{round(float(row[0]) * 100)}e-2"
    elif kind == "reordered_respelled":  # a reordered instant with a stamp respelled
        _irregular("reordered_instant", rows, at)
        _irregular("timestamp_spelling", rows, at)
    elif kind == "reordered_every_second_chunk":  # walked and fast batches alternate
        text = "".join(",".join(r) + "\n" for r in rows)
        starts = list(accumulate(chunk.count("\n") for chunk in traces._chunks(io.StringIO(text))))
        # an instant inside each of chunks 1, 3, 5 ..., clear of its first line
        for start in starts[:-1:2]:
            _irregular("reordered_instant", rows, start + len(DOMAINS) + at % len(DOMAINS))
    elif kind == "quoted_field":
        row[2] = f'"{row[2]}"'
    else:  # a blank line
        rows.insert(at, [])


IRREGULARITIES = ("padded_domain", "reordered_instant", "timestamp_spelling",
                  "reordered_respelled", "reordered_every_second_chunk", "quoted_field",
                  "blank_line")


@pytest.mark.parametrize("kind", IRREGULARITIES + DEFECTS)
def test_an_irregularity_at_a_chunk_border_reads_as_row_by_row(kind):
    # at the default chunk size, a batch near the border is read on its text
    # or row by row; either way it must read as the reference does
    clean, cut = _border_rows()
    for at in (cut - 1, cut, cut + 1):
        rows = [list(row) for row in clean]
        if kind in DEFECTS:
            _apply(kind, rows, at)
        else:
            _irregular(kind, rows, at)
        text = "".join(",".join(row) + "\n" for row in rows)
        expected = _outcome(reference_totals, text)
        assert isinstance(expected, str) == (kind in DEFECTS), expected
        assert _outcome(_replay_csv, text) == expected
        assert _outcome(parse_trace, text) == _outcome(reference_parse, text)


def test_only_the_first_instant_of_a_plain_trace_is_walked(monkeypatch):
    # equal totals alone would pass a loader that walks every batch
    clean, cut = _border_rows()
    reordered = [list(row) for row in clean]
    _irregular("reordered_every_second_chunk", reordered, cut)
    chunks = len(list(traces._chunks(io.StringIO("".join(",".join(r) + "\n" for r in clean)))))
    assert chunks > 10
    walks = []
    walk = traces._Loader._walk

    def counting(self, batches):
        walks.append(1)
        return walk(self, batches)

    monkeypatch.setattr(traces._Loader, "_walk", counting)
    # the first instant, then the first batch holding a reordered instant,
    # from which the walk reads the trace to its end
    for rows, expected in ((clean, 1), (reordered, 2)):
        text = "".join(",".join(row) + "\n" for row in rows)
        del walks[:]
        assert totals(TraceSource.from_csv(text)) == reference_totals(text)
        assert len(walks) == expected


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_defect_after_the_hand_off_to_the_walk_reads_as_row_by_row(defect):
    # an instant reordered in the second chunk hands the rest of the trace
    # to the walk, which must name a defect five chunks later itself
    rows, cut = _border_rows()
    text = "".join(",".join(row) + "\n" for row in rows)
    starts = list(accumulate(chunk.count("\n") for chunk in traces._chunks(io.StringIO(text))))
    assert len(starts) > 7
    _irregular("reordered_instant", rows, cut - 2 * len(DOMAINS))
    _apply(defect, rows, starts[5] + 2 * len(DOMAINS) + 1)
    text = "".join(",".join(row) + "\n" for row in rows)
    expected = _outcome(reference_totals, text)
    assert expected.startswith("TraceError: ")
    assert _outcome(_replay_csv, text) == expected
    assert _outcome(parse_trace, text) == _outcome(reference_parse, text)


def _jittered_trace(instants, seed):
    """Two domains read every 0.1 s +- 30 % from time 0, wrapping once midway."""
    rng = random.Random(seed)
    rows, t, energy = [], 0.0, [10**9, 2 * 10**9]
    for i in range(instants):
        t += 0.1 * (1 + rng.uniform(-0.3, 0.3))
        for d in range(2):
            energy[d] = 123 if i == instants // 2 else energy[d] + rng.randrange(10**6, 5 * 10**6)
            rows.append(f"{t!r},pkg-{d},{energy[d]},{2**40}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("chunk_chars", [64, 32 * 1024])
def test_streamed_totals_equal_the_whole_trace_fold_to_the_last_bit(chunk_chars, monkeypatch):
    # joules or seconds summed a chunk at a time in floats differ from the
    # whole-trace fold in the last bits on this trace
    text = _jittered_trace(3000, seed=22)
    monkeypatch.setattr(traces, "_CHUNK_CHARS", chunk_chars)
    assert _replay_csv(text) == reference_totals(text)


def _replay_peak_bytes(folder, instants, reordered=False):
    """The peak traced bytes of replaying a two-domain trace of `instants`
    instants from a file, its second instant's rows swapped if `reordered`."""
    lines = constant_trace(10.0, instants, domains=("pkg-0", "pkg-1")).splitlines(keepends=True)
    if reordered:
        lines[2:4] = lines[3:1:-1]
    path = folder / f"{instants}-{reordered}.csv"
    path.write_text("".join(lines))
    tracemalloc.start()
    try:
        source = TraceSource.from_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals(source)[2:] == (instants, 0, instants)
    return peak


def test_replay_memory_does_not_grow_with_trace_length(tmp_path):
    _replay_peak_bytes(tmp_path, 10)  # first-use allocations
    # the larger file is 5 MB: holding its instants, or reading it whole,
    # would show here
    assert abs(_replay_peak_bytes(tmp_path, 50_000) - _replay_peak_bytes(tmp_path, 5_000)) <= 64 * 1024


def test_walked_replay_memory_does_not_grow_with_trace_length(tmp_path):
    # the second instant hands the rest of the trace to the walk, which
    # must hand on its instants a batch at a time
    # first-use allocations: a walk of a few batches fills the interpreter's
    # free list of 3-tuples, ~120 KiB
    _replay_peak_bytes(tmp_path, 1000, reordered=True)
    assert (_replay_peak_bytes(tmp_path, 50_000, reordered=True)
            <= _replay_peak_bytes(tmp_path, 5_000, reordered=True) + 64 * 1024)
