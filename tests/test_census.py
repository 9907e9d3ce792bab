"""The census plugin's reading of ``# census:`` verdicts (``tests/census.py``)."""

from tests.census import function_table


def test_verdicts_on_or_above_the_def_line(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Base:\n"
        "    # census: interface stub; several implementations\n"
        "    @staticmethod\n"
        "    def stub():\n"
        "        pass\n"
        "\n"
        "    def reference(self,  # census: reference tests compare against\n"
        "                  other):\n"
        "        pass\n"
        "\n"
        "\n"
        "def plain():\n"
        "    # census: a comment inside the body is not a verdict\n"
        "    pass\n"
    )
    table = {name: (lines, verdict) for name, lines, verdict in function_table(tmp_path).values()}
    assert table == {
        "Base.stub": (3, "interface stub; several implementations"),
        "Base.reference": (3, "reference tests compare against"),
        "plain": (3, None),
    }
