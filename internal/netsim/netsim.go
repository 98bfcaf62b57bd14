// Package netsim models the physical resources of the paper's testbed that
// a laptop-scale reproduction cannot replicate directly: the disk subsystem
// that makes analytical scans I/O-bound (§8.1 flushes caches and limits RAM
// to force disk reads) and the 10 Mbit/s client↔server WAN link (throttled
// with tc in the paper).
//
// Query cost = server scan time (bytes/disk-throughput) + server CPU
// (per-row work plus measured crypto-UDF time) + network transfer
// (bytes/bandwidth) + client CPU (measured decrypt time). The simulated
// components make runs deterministic and machine-independent; the measured
// components (bignum arithmetic, AES) use real CPU time so that, e.g.,
// Paillier decryption being expensive — the fact that drives the planner's
// client-vs-server aggregation choice — is real, not assumed.
package netsim

import "time"

// Config fixes the simulated hardware.
type Config struct {
	// NetBitsPerSec is the client↔server link bandwidth (paper: 10 Mbit/s).
	NetBitsPerSec float64
	// CompressionRatio scales transferred bytes (paper compresses with
	// ssh -C; ciphertext is mostly incompressible, so default 1.0).
	CompressionRatio float64
	// DiskBytesPerSec is sequential scan throughput on the server.
	DiskBytesPerSec float64
	// ServerRowNanos is per-row CPU cost of scan/join/aggregate processing.
	ServerRowNanos float64
}

// Default returns the configuration used by the experiments: the paper's
// 10 Mbit/s link and a RAID-5 array of 7,200 RPM disks (~120 MB/s
// aggregate sequential throughput, which is what makes scans I/O-bound).
func Default() Config {
	return Config{
		NetBitsPerSec:    10e6,
		CompressionRatio: 1.0,
		DiskBytesPerSec:  120e6,
		ServerRowNanos:   100,
	}
}

// TransferTime is the network time to ship n bytes to the client.
func (c Config) TransferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	bits := float64(n) * 8 * c.CompressionRatio
	return time.Duration(bits / c.NetBitsPerSec * float64(time.Second))
}

// ScanTime is the disk time to read n bytes sequentially on the server.
func (c Config) ScanTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / c.DiskBytesPerSec * float64(time.Second))
}

// RowTime is the server CPU time to process n rows.
func (c Config) RowTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * c.ServerRowNanos)
}
