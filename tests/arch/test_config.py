"""Unit tests for the architecture configuration (Table III parameters)."""

import pytest

from repro.arch.config import PIMConfig, paper_config, small_config


class TestPIMConfig:
    def test_defaults_match_paper_geometry(self):
        cfg = PIMConfig()
        assert cfg.columns == 1024
        assert cfg.partitions == 32
        assert cfg.word_size == 32
        assert cfg.frequency_hz == 300e6

    def test_registers_derived_from_columns(self):
        cfg = PIMConfig()
        assert cfg.registers == 32
        assert cfg.user_registers == 32 - cfg.scratch_registers

    def test_partition_width(self):
        assert PIMConfig().partition_width == 32

    def test_total_rows_is_parallelism(self):
        cfg = small_config(crossbars=4, rows=16)
        assert cfg.total_rows == 64

    def test_paper_config_is_8gb(self):
        cfg = paper_config()
        assert cfg.capacity_bits == 8 * (1 << 30) * 8
        assert cfg.crossbars == 65536

    def test_scratch_indices_are_top_registers(self):
        cfg = PIMConfig()
        indices = list(cfg.scratch_register_indices())
        assert indices == list(range(cfg.user_registers, cfg.registers))

    def test_columns_must_divide_by_partitions(self):
        with pytest.raises(ValueError):
            PIMConfig(columns=1000, partitions=32, word_size=32)

    def test_partitions_must_equal_word_size(self):
        with pytest.raises(ValueError):
            PIMConfig(partitions=16, word_size=32)

    def test_crossbars_power_of_two(self):
        with pytest.raises(ValueError):
            PIMConfig(crossbars=3)

    def test_needs_user_registers(self):
        with pytest.raises(ValueError):
            PIMConfig(columns=256, partitions=32, word_size=32, scratch_registers=8)

    @pytest.mark.parametrize("limit, beyond", [
        (dict(crossbars=1, rows=4096), dict(crossbars=1, rows=4097)),
        (dict(crossbars=1 << 18), dict(crossbars=1 << 19)),
        (dict(columns=4096), dict(columns=4128)),  # 128 / 129 registers
        (dict(columns=4096, partitions=64, word_size=64),
         dict(columns=8192, partitions=128, word_size=128)),
    ], ids=["rows", "crossbars", "registers", "partitions"])
    def test_geometry_is_bounded_by_the_operation_word(self, limit, beyond):
        """A chip the 64-bit interface cannot address is refused; the
        limits are the field widths of ``arch.micro_ops``, reached."""
        from repro.arch import micro_ops

        cfg = PIMConfig(**limit)
        assert cfg.rows <= 1 << micro_ops._ROW_FIELD
        assert cfg.crossbars <= 1 << micro_ops._XB_FIELD
        assert cfg.registers <= 1 << micro_ops._IDX_FIELD
        assert cfg.partitions <= 1 << micro_ops._PART_FIELD
        with pytest.raises(ValueError):
            PIMConfig(**beyond)

    def test_fingerprint_is_the_geometry(self):
        from repro.arch.config import config_fingerprint
        from repro.driver import config_fingerprint as exported

        assert exported is config_fingerprint
        # The geometry, then the scratch range lowering clobbers.
        assert config_fingerprint(small_config(4, 8)) == (4, 8, 1024, 32, 32, 16)
        assert config_fingerprint(PIMConfig(frequency_hz=1e6)) \
            == config_fingerprint(PIMConfig())
        assert config_fingerprint(PIMConfig(scratch_registers=8)) \
            != config_fingerprint(PIMConfig())

    def test_frozen(self):
        cfg = PIMConfig()
        with pytest.raises(Exception):
            cfg.rows = 1  # type: ignore[misc]
