package monomi

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"
)

// selfSignedTLS returns a server config holding a fresh self-signed
// certificate for 127.0.0.1 and a client config that trusts it.
func selfSignedTLS(t *testing.T) (*tls.Config, *tls.Config) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "monomi-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	srvCfg := &tls.Config{Certificates: []tls.Certificate{{
		Certificate: [][]byte{der}, PrivateKey: key,
	}}}
	cliCfg := &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
	return srvCfg, cliCfg
}

// TestConnectRemoteTLS: a System served with a TLS ServeConfig and reached
// through ConnectRemoteTLS returns, for a handful of the differential
// statements — scan, DISTINCT, grouped HOM sums, a join, top-N, a subquery
// and a key-filtered fetch — the rows of the in-process System, order
// verbatim. A client that does not trust the certificate cannot connect.
func TestConnectRemoteTLS(t *testing.T) {
	sys := diffSystem(t)
	defer sys.Close()
	srvCfg, cliCfg := selfSignedTLS(t)
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{TLS: srvCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := sys.ConnectRemoteTLS(srv.Addr().String(), cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	stmts := append([]string(nil), shardedStreamShapes[:7]...)
	stmts = append(stmts, breakerShapes[0].sql, keyFilterShapes[1].sql)
	for _, sql := range stmts {
		want, err := sys.Query(sql)
		if err != nil {
			t.Fatalf("in-process %s: %v", sql, err)
		}
		got, err := remote.Query(sql)
		if err != nil {
			t.Fatalf("over TLS %s: %v", sql, err)
		}
		w, g := canonicalRows(t, want.Data, true), canonicalRows(t, got.Data, true)
		if len(w) == 0 && !strings.Contains(sql, "LIMIT 0") {
			t.Errorf("%s: no rows in process; the statement shows nothing", sql)
		}
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s: over TLS\n%v\nin process\n%v", sql, g, w)
		}
	}

	if s, err := sys.ConnectRemoteTLS(srv.Addr().String(), &tls.Config{ServerName: "127.0.0.1"}); err == nil {
		s.Close()
		t.Error("a client that does not trust the server's certificate connected")
	}
}
