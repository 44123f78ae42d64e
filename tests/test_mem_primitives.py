"""Tests for page tables, cgroups, and page metadata."""

import pytest

from repro.mem.cgroup import CgroupOverLimitError, MemoryCgroup
from repro.mem.page import Page, PageFlags, page_key
from repro.mem.page_table import PageTable


class TestPageTable:
    def test_map_and_lookup(self):
        table = PageTable(pid=1)
        entry = table.map_page(5, frame=7, now=100)
        assert table.is_resident(5)
        assert entry.frame == 7
        assert table.lookup(5).mapped_at == 100

    def test_double_map_rejected(self):
        table = PageTable(1)
        table.map_page(5, frame=1, now=0)
        with pytest.raises(ValueError):
            table.map_page(5, frame=2, now=0)

    def test_unmap_returns_entry(self):
        table = PageTable(1)
        table.map_page(5, frame=1, now=0, dirty=True)
        entry = table.unmap_page(5)
        assert entry.dirty
        assert not table.is_resident(5)

    def test_unmap_missing_raises(self):
        table = PageTable(1)
        with pytest.raises(KeyError):
            table.unmap_page(5)

    def test_mark_dirty(self):
        table = PageTable(1)
        table.map_page(5, frame=1, now=0)
        table.mark_dirty(5)
        assert table.lookup(5).dirty

    def test_mark_dirty_missing_raises(self):
        table = PageTable(1)
        with pytest.raises(KeyError):
            table.mark_dirty(5)

    def test_resident_count_tracks(self):
        table = PageTable(1)
        for vpn in range(10):
            table.map_page(vpn, frame=vpn, now=0)
        assert table.resident_count == 10
        table.unmap_page(3)
        assert table.resident_count == 9
        assert sorted(table.resident_vpns()) == [0, 1, 2, 4, 5, 6, 7, 8, 9]


class TestMemoryCgroup:
    def test_charge_within_limit(self):
        cgroup = MemoryCgroup("t", 10)
        cgroup.charge(5)
        assert cgroup.charged_pages == 5
        assert cgroup.available_pages == 5

    def test_over_limit_raises(self):
        cgroup = MemoryCgroup("t", 10)
        cgroup.charge(10)
        with pytest.raises(CgroupOverLimitError):
            cgroup.charge(1)

    def test_can_charge(self):
        cgroup = MemoryCgroup("t", 4)
        cgroup.charge(3)
        assert cgroup.can_charge(1)
        assert not cgroup.can_charge(2)

    def test_uncharge(self):
        cgroup = MemoryCgroup("t", 10)
        cgroup.charge(5)
        cgroup.uncharge(3)
        assert cgroup.charged_pages == 2

    def test_uncharge_more_than_charged_raises(self):
        cgroup = MemoryCgroup("t", 10)
        cgroup.charge(1)
        with pytest.raises(ValueError):
            cgroup.uncharge(2)

    def test_watermark(self):
        cgroup = MemoryCgroup("t", 10, high_watermark=0.8)
        cgroup.charge(7)
        assert not cgroup.above_watermark()
        cgroup.charge(1)
        assert cgroup.above_watermark()

    def test_peak_tracking(self):
        cgroup = MemoryCgroup("t", 10)
        cgroup.charge(6)
        cgroup.uncharge(4)
        cgroup.charge(1)
        assert cgroup.peak_charged_pages == 6

    def test_pressure(self):
        cgroup = MemoryCgroup("t", 8)
        cgroup.charge(2)
        assert cgroup.pressure() == pytest.approx(0.25)


class TestPageMetadata:
    def test_page_key_validation(self):
        assert page_key(1, 2) == (1, 2)
        with pytest.raises(ValueError):
            page_key(-1, 0)
        with pytest.raises(ValueError):
            page_key(0, -5)

    def test_flag_operations(self):
        page = Page(key=(1, 2))
        assert not page.dirty
        page.set_flag(PageFlags.DIRTY)
        assert page.dirty
        page.clear_flag(PageFlags.DIRTY)
        assert not page.dirty
        # Flags are stored as plain int bits of the PageFlags values.
        page.set_flag(PageFlags.PREFETCHED)
        assert page.flags == PageFlags.PREFETCHED.value
        assert page.prefetched and page.has_flag(PageFlags.PREFETCHED)

    def test_readiness(self):
        page = Page(key=(1, 2), arrival_time=100)
        assert not page.is_ready(50)
        assert page.is_ready(100)
        assert page.is_ready(150)

    def test_pid_vpn_accessors(self):
        page = Page(key=(3, 9))
        assert page.pid == 3
        assert page.vpn == 9
