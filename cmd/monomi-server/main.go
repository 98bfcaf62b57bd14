// monomi-server runs the untrusted half of the MONOMI split as a
// standalone network service: it generates the TPC-H substrate at the
// given scale factor, re-derives the encrypted design from the same master
// key and workload the trusted side uses (the design is deterministic, so
// both ends agree without ever shipping keys), encrypts the database, and
// serves transport sessions over TCP (optionally TLS).
//
// Remote clients connect with System.ConnectRemote after building their
// own System from the identical -masterkey / -sf / -seed / -paillier
// configuration. Admission control is -maxconns / -maxinflight /
// -querywait; on shutdown the server-wide session and query totals are
// logged.
//
//	monomi-server -addr :7077 -sf 0.002
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	monomi "repro"
)

func main() {
	addr := flag.String("addr", ":7077", "listen address")
	sf := flag.Float64("sf", 0.002, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "data generator seed")
	masterKey := flag.String("masterkey", "monomi-default-master-key", "master key (clients must use the same)")
	bits := flag.Int("paillier", 512, "Paillier modulus bits (paper: 1024)")
	maxConns := flag.Int("maxconns", 64, "concurrent session cap (0 = unlimited)")
	maxInFlight := flag.Int("maxinflight", 16, "concurrent query cap (0 = unlimited)")
	queryWait := flag.Duration("querywait", 0, "how long a query may wait for an in-flight slot (0 = fail fast)")
	tlsCert := flag.String("tls-cert", "", "TLS certificate file (with -tls-key; empty = plain TCP)")
	tlsKey := flag.String("tls-key", "", "TLS private key file")
	backend := flag.String("backend", "mem", "storage backend for the encrypted tables: mem or disk")
	dataDir := flag.String("data", "", "segment-file directory for -backend disk (rewritten at every start)")
	flag.Parse()

	sys, err := buildSystem(*sf, *seed, *masterKey, *bits, *backend, *dataDir)
	if err != nil {
		log.Fatal(err)
	}

	cfg := monomi.ServeConfig{
		MaxConns:    *maxConns,
		MaxInFlight: *maxInFlight,
		QueryWait:   *queryWait,
	}
	if *tlsCert != "" || *tlsKey != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			log.Fatalf("loading TLS keypair: %v", err)
		}
		cfg.TLS = &tls.Config{Certificates: []tls.Certificate{cert}}
	}

	srv, err := sys.Serve(*addr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	scheme := "tcp"
	if cfg.TLS != nil {
		scheme = "tls"
	}
	log.Printf("monomi-server listening on %s (%s), maxconns=%d maxinflight=%d querywait=%v",
		srv.Addr(), scheme, *maxConns, *maxInFlight, *queryWait)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down...")
	start := time.Now()
	srv.Close()
	defer sys.Close()
	st := srv.Stats()
	log.Printf("drained in %v: %d sessions (%d rejected), %d queries (%d rejected, %d cancelled, %d errors)",
		time.Since(start).Round(time.Millisecond),
		st.Accepted, st.RejectedConns, st.Queries, st.RejectedQs, st.Cancelled, st.Errors)
}

// buildSystem stands up the encrypted deployment the server hosts. The
// workload is every supported TPC-H query, so the design covers whatever
// the remote trusted side plans.
func buildSystem(sf float64, seed int64, masterKey string, bits int, backend, dataDir string) (*monomi.System, error) {
	log.Printf("generating TPC-H at SF %g (seed %d) and encrypting (paillier %d bits)...", sf, seed, bits)
	db, err := monomi.TPCH(sf, seed)
	if err != nil {
		return nil, err
	}
	workload := monomi.Workload{}
	for _, n := range monomi.TPCHQueries() {
		q, _ := monomi.TPCHQuery(n)
		workload[fmt.Sprintf("q%d", n)] = q
	}
	opts := monomi.DefaultOptions()
	opts.MasterKey = []byte(masterKey)
	opts.PaillierBits = bits
	opts.Backend = backend
	opts.DataDir = dataDir
	sys, err := monomi.Encrypt(db, workload, opts)
	if err != nil {
		return nil, err
	}
	_, _, plainBytes, encBytes := sys.DesignStats()
	log.Printf("encrypted: %d plaintext bytes -> %d encrypted bytes", plainBytes, encBytes)
	return sys, nil
}
