"""Communication accounting."""

from __future__ import annotations

import pytest

from repro.fl.communication import (
    BYTES_PER_PARAM,
    CommunicationTracker,
)


class TestCounting:
    def test_totals(self):
        tracker = CommunicationTracker()
        tracker.record_download(100)
        tracker.record_upload(40)
        tracker.record_upload(10, phase="clustering")
        assert tracker.total_downloaded == 100
        assert tracker.total_uploaded == 50
        assert tracker.total_params == 150
        assert tracker.total_bytes == 150 * BYTES_PER_PARAM

    def test_phase_buckets(self):
        tracker = CommunicationTracker()
        tracker.record_upload(7, phase="clustering")
        tracker.record_upload(3, phase="training")
        tracker.record_download(5, phase="training")
        assert tracker.uploaded_in("clustering") == 7
        assert tracker.uploaded_in("training") == 3
        assert tracker.downloaded_in("clustering") == 0
        by_phase = tracker.by_phase()
        assert by_phase["clustering"] == {"uploaded": 7, "downloaded": 0}
        assert by_phase["training"] == {"uploaded": 3, "downloaded": 5}

    def test_snapshot(self):
        tracker = CommunicationTracker()
        tracker.record_upload(2)
        snap = tracker.totals()
        tracker.record_upload(2)
        assert snap["uploaded"] == 2  # snapshot is immutable

    def test_negative_raises(self):
        tracker = CommunicationTracker()
        with pytest.raises(ValueError):
            tracker.record_upload(-1)
        with pytest.raises(ValueError):
            tracker.record_download(-5)
