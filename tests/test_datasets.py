import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsda.datasets import (
    Dataset,
    gpd_inverse_cdf,
    load_csv,
    sales_pattern_table,
    simulate_gpd,
    simulate_gpd_sites,
    simulate_hetero,
    simulate_sales,
    write_csv,
)
from gsda.errors import InvalidInput, MissingColumn, ParseError


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,w\n1,0.1\n2,0.2\n3,0.3\n")
        data = load_csv(p)
        assert np.allclose(data.y, [1.0, 2.0, 3.0])
        assert np.allclose(data.W[:, 0], [0.1, 0.2, 0.3])
        assert data.columns == ["w"] and data.kinds == ["numeric"]
        assert data.n_dropped == 0

    def test_bad_numeric_row_dropped_and_counted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,w\n1,0.1\nohno,0.2\n3,0.3\n4,0.4\n")
        data = load_csv(p)
        assert data.n == 3
        assert data.n_dropped == 1

    def test_missing_value_dropped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,w\n1,0.1\n2,\n3,0.3\n4,NA\n5,0.5\n")
        data = load_csv(p)
        assert data.n == 3 and data.n_dropped == 2

    @pytest.mark.parametrize("cell", ["nan", "-NaN", "inf", "-inf", "+Infinity", "1e400",
                                      "-1e400", "", "  ", "NA", "null", "None", "1.2.3",
                                      "0x10", "1,5", "abc"])
    def test_unusable_cell_drops_its_row(self, tmp_path, cell):
        # in the response, in a numeric covariate, and (a missing token
        # only) in a factor; blank lines are skipped and not counted
        p = tmp_path / "d.csv"
        p.write_text(f'y,w,g\n1,0.1,a\n"{cell}",0.2,a\n\n3," {cell} ",b\n'
                     f'4, 0.4 ,"{cell}"\n\n5,0.5,b\n6,0.6,a\n')
        data = load_csv(p, factor_columns=["g"])
        labels = {1.0: "a", 4.0: cell.strip(), 5.0: "b", 6.0: "a"}
        if cell.strip().lower() in ("", "na", "nan", "null", "none"):
            kept = [1.0, 5.0, 6.0]
        else:
            kept = [1.0, 4.0, 5.0, 6.0]
        assert data.n_dropped == 6 - len(kept)
        assert data.y.tolist() == kept
        assert data.column("w").tolist() == [y / 10.0 for y in kept]
        assert data.labels("g").tolist() == [labels[y] for y in kept]

    def test_blank_lines_keep_error_line_numbers(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,w\n1,0.1\n\n2,0.2,9\n")
        with pytest.raises(ParseError, match="^line 4: expected 2 fields, found 3$"):
            load_csv(p)

    def test_error_line_numbers_count_the_lines_a_quoted_cell_spans(self, tmp_path):
        # the cell "0.3\n4" spans lines 4-5 (its row is dropped as unparseable),
        # so the 3-field row is the file's line 7, not its sixth record
        p = tmp_path / "d.csv"
        p.write_text('y,w\n1,0.1\n2,0.2\n3,"0.3\n4"\n4,0.4\n5,0.5,9\n')
        with pytest.raises(ParseError, match="^line 7: expected 2 fields, found 3$"):
            load_csv(p)

    def test_factor_levels_first_appearance_order(self, tmp_path):
        p = tmp_path / "d.csv"
        days = ["Wed", "Mon", "Wed", "Tue", "Mon"]
        p.write_text("y,day\n" + "\n".join(f"{i},{d}" for i, d in enumerate(days)))
        data = load_csv(p, factor_columns=["day"])
        assert data.levels["day"] == ["Wed", "Mon", "Tue"]
        assert np.allclose(data.column("day"), [0, 1, 0, 2, 1])
        assert list(data.labels("day")) == days

    def test_field_count_mismatch_raises_with_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,w\n1,0.1\n2,0.2,9\n3,0.3\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(p)

    def test_repeated_header_name_raises_at_line_1(self, tmp_path):
        # read as is, the second "w" column would overwrite the first
        p = tmp_path / "d.csv"
        p.write_text("y,w,w\n1,10,20\n2,11,21\n3,12,22\n")
        with pytest.raises(ParseError, match="^line 1: column 'w' appears twice") as err:
            load_csv(p)
        assert err.value.line == 1

    @pytest.mark.parametrize("text, where", [
        ('y,"g\nh"\n1,a\n2,b\n3,a\n', "line 1: column name 'g\\nh'"),
        # a lone \r ends a physical line too: "b\r" ends on line 5, so the
        # row of "c\rd" starts on line 6
        ('y,g\n1,a\n\n2,"b\r"\n3,"c\rd"\n', "line 6: label 'c\\rd'"),
    ], ids=["name", "label"])
    def test_line_break_in_a_name_or_label_raises_with_its_line(self, tmp_path, text, where):
        # diagnostics.txt keeps one line per key: coverage[g|label] names a label
        p = tmp_path / "d.csv"
        p.write_text(text, newline="")
        with pytest.raises(ParseError, match=f"^{re.escape(where)} holds a line break$"):
            load_csv(p, factor_columns=["g"])

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,w\n1,0.1\n2,0.2\n3,0.3\n")
        with pytest.raises(MissingColumn):
            load_csv(p, response_column="y")
        p.write_text("y,w\n1,0.1\n2,0.2\n3,0.3\n")
        with pytest.raises(MissingColumn):
            load_csv(p, factor_columns=["day"])

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,w\n1,0.1\n2,0.2\n")
        with pytest.raises(InvalidInput):
            load_csv(p)

    @pytest.mark.parametrize("text, found, column, count", [
        # a label column read as numbers drops every row
        ("y,site,t\n1,alpha,0\n2,beta,1\n3,alpha,2\n", 0, "site", 3),
        # a bad response after a bad label is the response's, not the label's
        ("y,site,t\n1,a,0\nx,1,1\nz,2,2\n4,5,6\n", 1, "y", 2),
    ], ids=["label-column", "response-after-label"])
    def test_too_few_rows_names_the_column_that_dropped_most(self, tmp_path, text, found,
                                                             column, count):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(InvalidInput) as info:
            load_csv(p)
        assert str(info.value) == (
            f"need at least 3 usable rows, found {found}; column {column!r} failed to "
            f"parse in {count} rows (a label column must be read as a factor)")


class TestRoundTrip:
    def test_bit_exact_floats(self, tmp_path):
        rng = np.random.default_rng(0)
        y = np.concatenate([rng.standard_normal(20) * 10.0 ** rng.integers(-8, 8, 20),
                            [1.0 / 3.0, np.pi, 2.0 ** -40]])
        W = rng.standard_normal((y.size, 2))
        # factor codes follow first-appearance order, as the loader assigns them
        labels = [["x", "y", "z"][i] for i in rng.integers(0, 3, y.size)]
        level_order = list(dict.fromkeys(labels))
        codes = np.array([level_order.index(lab) for lab in labels], dtype=float)
        data = Dataset(y, np.column_stack([W, codes]), ["a", "b", "lab"],
                       ["numeric", "numeric", "factor"], {"lab": level_order})
        path = tmp_path / "round.csv"
        write_csv(data, path)
        back = load_csv(path, factor_columns=["lab"])
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.W, data.W)
        assert back.levels["lab"] == level_order

    def test_two_writes_identical(self, tmp_path):
        data = simulate_gpd(50, 2.0, 0.2, seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(data, a)
        write_csv(data, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().count(b"\n") == 51 and b"\r" not in a.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(st.text(',"=:ab', min_size=1, max_size=5), min_size=3, max_size=3,
                          unique=True),
           labels=st.lists(st.text(',"=:ab ', min_size=1, max_size=5).map(str.strip)
                           .filter(bool), min_size=3, max_size=8),
           ys=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8,
                       max_size=8))
    def test_names_and_labels_with_commas_and_quotes(self, tmp_path_factory, names, labels,
                                                     ys):
        # the response, a numeric column and a factor, each named from
        # , " = : a b; the labels may also hold inner spaces.  The bytes
        # are the csv module's minimal quoting with \n line ends
        n = len(labels)
        y = np.array(ys[:n])
        level_order = list(dict.fromkeys(labels))
        codes = np.array([level_order.index(lab) for lab in labels], dtype=float)
        data = Dataset(y, np.column_stack([y[::-1], codes]), names[1:],
                       ["numeric", "factor"], {names[2]: level_order}, names[0])
        path = tmp_path_factory.mktemp("round") / "d.csv"
        write_csv(data, path)
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(
            [names, *zip((f"{v:.17g}" for v in y), (f"{v:.17g}" for v in y[::-1]), labels)])
        assert path.read_bytes() == want.getvalue().encode()
        back = load_csv(path, names[0], [names[2]])
        assert back.columns == names[1:] and back.n_dropped == 0
        assert np.array_equal(back.y, y) and np.array_equal(back.column(names[1]), y[::-1])
        assert back.labels(names[2]).tolist() == labels


class TestGpdSimulation:
    def test_median_at_fixed_u(self):
        assert gpd_inverse_cdf(0.5, 1.0, 0.0) == pytest.approx(np.log(2.0))
        # scalars broadcast against u, and below |kappa| = 1e-8 the series
        # keeps its kappa term: median sigma*(log 2 + kappa*log(2)^2/2)
        u = np.full(3, 0.5)
        assert gpd_inverse_cdf(u, 2.0, 0.0).tolist() == [2.0 * np.log(2.0)] * 3
        for kappa in (-5e-9, 5e-9):
            want = 2.0 * (np.log(2.0) + 0.5 * kappa * np.log(2.0) ** 2)
            assert gpd_inverse_cdf(u, 2.0, kappa) == pytest.approx(want, rel=1e-15)

    def test_exponential_mean(self):
        data = simulate_gpd(100_000, 1.0, 0.0, seed=2)
        assert abs(data.y.mean() - 1.0) <= 3.0 / np.sqrt(100_000)

    def test_gpd_mean_formula(self):
        # mean = sigma / (1 - kappa); sd of the sample mean from the
        # variance formula sigma^2 / ((1-k)^2 (1-2k))
        n = 100_000
        data = simulate_gpd(n, 2.0, 0.2, seed=3)
        se = np.sqrt(4.0 / (0.8 ** 2 * 0.6) / n)
        assert abs(data.y.mean() - 2.5) <= 3.0 * se

    def test_deterministic(self):
        a = simulate_gpd(100, 2.0, 0.2, seed=7)
        b = simulate_gpd(100, 2.0, 0.2, seed=7)
        assert np.array_equal(a.y, b.y)

    def test_callable_parameters(self):
        data = simulate_gpd(500, lambda t: 1.0 + t, lambda t: 0.1 * t, seed=0)
        assert data.n == 500 and np.all(data.y > 0.0)

    def test_sites_dataset_shape(self):
        data = simulate_gpd_sites(40, seed=0)
        assert data.n == 120
        assert data.kinds == ["factor", "numeric"]
        assert data.levels["site"] == ["alpha", "bravo", "charlie"]


class TestSalesSimulation:
    def test_deterministic(self):
        a = simulate_sales(14, 17, seed=5)
        b = simulate_sales(14, 17, seed=5)
        assert np.array_equal(a.y, b.y)

    def test_cell_means_track_pattern_table(self):
        weeks = 200
        data = simulate_sales(7 * weeks, 17, seed=11)
        table = sales_pattern_table(17)
        day = data.column("day").astype(int)
        hour = data.column("hour").astype(int)
        for d in range(7):
            for h in range(17):
                cell = data.y[(day == d) & (hour == h)]
                assert cell.size == weeks
                assert abs(cell.mean() - table[d, h]) <= 0.05 * table[d, h]

    def test_sunday_pattern_distinct(self):
        table = sales_pattern_table(17)
        weekday_shape = table[0] / table[0].sum()
        sunday_shape = table[6] / table[6].sum()
        assert np.max(np.abs(weekday_shape - sunday_shape)) > 0.01

    def test_factor_columns(self):
        data = simulate_sales(7, 5, seed=0)
        assert data.levels["day"] == ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
        assert data.levels["hour"] == ["06", "07", "08", "09", "10"]

    def test_interaction_codes(self):
        data = simulate_sales(14, 3, seed=1)
        codes, levels = data.interaction("day", "hour")
        assert levels[0] == "Mon:06"
        assert len(levels) == 21
        assert codes.shape == (42,)


class TestHetero:
    def test_shape_and_determinism(self):
        a = simulate_hetero(100, seed=4)
        b = simulate_hetero(100, seed=4)
        assert a.columns == ["w"]
        assert np.array_equal(a.y, b.y)
