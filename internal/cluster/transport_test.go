package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bitgen/internal/bgerr"
	"bitgen/internal/faultinject"
)

// TestTransportPeerRefuseAndPartition: armed refuse/partition points fail
// the request before any bytes move, with a transient-class error.
func TestTransportPeerRefuseAndPartition(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer hs.Close()
	host := strings.TrimPrefix(hs.URL, "http://")

	in := faultinject.New(3).
		ArmNth(faultinject.PeerRefuse.For(host), 1).
		Arm(faultinject.PeerPartition.For(host), faultinject.Spec{Nth: 2, Repeat: true})
	client := &http.Client{Transport: &Transport{Inject: in}}

	_, err := client.Get(hs.URL)
	if err == nil || !errors.Is(err, bgerr.ErrTransient) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("refused request error = %v, want transient injected", err)
	}
	// Hit 2 on the partition point: now persistently unreachable.
	for i := 0; i < 3; i++ {
		if _, err := client.Get(hs.URL); err == nil {
			t.Fatalf("partitioned request %d succeeded", i)
		}
	}
	// A different peer is unaffected.
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer other.Close()
	resp, err := client.Get(other.URL)
	if err != nil {
		t.Fatalf("unscoped peer affected by scoped fault: %v", err)
	}
	resp.Body.Close()
}

// TestTransportDeadlineHeader: the propagated-deadline header carries the
// remaining budget.
func TestTransportDeadlineHeader(t *testing.T) {
	var gotDeadline string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotDeadline = r.Header.Get(HeaderDeadlineMS)
		w.Write([]byte("ok"))
	}))
	defer hs.Close()
	client := &http.Client{Transport: &Transport{}}

	req, _ := http.NewRequest(http.MethodGet, hs.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := client.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotDeadline == "" {
		t.Error("deadline header missing on a request with a deadline")
	}
}

// TestTransportPeerDropCutsMidStream: a fired PeerDrop lets DropAfter
// bytes through, then errors transient.
func TestTransportPeerDropCutsMidStream(t *testing.T) {
	payload := strings.Repeat("x", 1024)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer hs.Close()
	host := strings.TrimPrefix(hs.URL, "http://")

	in := faultinject.New(1).ArmNth(faultinject.PeerDrop.For(host), 1)
	client := &http.Client{Transport: &Transport{Inject: in, DropAfter: 100}}
	resp, err := client.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err == nil || !errors.Is(err, bgerr.ErrTransient) {
		t.Fatalf("read error = %v, want transient mid-stream drop", err)
	}
	if len(got) != 100 {
		t.Errorf("bytes before drop = %d, want 100", len(got))
	}
}
