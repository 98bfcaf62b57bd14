package netsim

import (
	"testing"
	"time"
)

func TestTransferTimeAtTenMbit(t *testing.T) {
	cfg := Default()
	// 10 Mbit/s = 1.25 MB/s: 1.25 MB should take ~1 s.
	got := cfg.TransferTime(1250000)
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Errorf("transfer time = %v, want ~1s", got)
	}
	if cfg.TransferTime(0) != 0 || cfg.TransferTime(-5) != 0 {
		t.Error("non-positive sizes cost nothing")
	}
}

func TestCompressionScalesTransfer(t *testing.T) {
	cfg := Default()
	cfg.CompressionRatio = 0.5
	if cfg.TransferTime(1000) >= Default().TransferTime(1000) {
		t.Error("compression should shorten transfers")
	}
}

func TestScanTime(t *testing.T) {
	cfg := Default()
	got := cfg.ScanTime(int64(cfg.DiskBytesPerSec))
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Errorf("scanning one second of disk = %v", got)
	}
	if cfg.ScanTime(0) != 0 {
		t.Error("zero bytes scan instantly")
	}
}

func TestRowTime(t *testing.T) {
	cfg := Default()
	if cfg.RowTime(1e6) != time.Duration(1e6*cfg.ServerRowNanos) {
		t.Error("row CPU time")
	}
	if cfg.RowTime(0) != 0 {
		t.Error("zero rows cost nothing")
	}
}
