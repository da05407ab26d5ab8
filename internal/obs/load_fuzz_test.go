package obs

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// exportLoaded loads a Chrome trace and exports the loaded recorder again.
func exportLoaded(data []byte) ([]byte, error) {
	rec, err := LoadChromeTrace(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := rec.WriteChromeTrace(&out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// TestChromeGoldenRoundTrip loads the exporter's golden trace and exports
// it again: the bytes must not change.
func TestChromeGoldenRoundTrip(t *testing.T) {
	golden, err := os.ReadFile("../trace/testdata/chrome_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := exportLoaded(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("export of the loaded golden differs:\ngot  %s\nwant %s", got, golden)
	}
}

// FuzzLoadChromeTrace feeds arbitrary bytes to LoadChromeTrace, which must
// return an error or a recorder, never panic. A loaded recorder's export
// is a trace written by the exporter, so it must survive load → export
// byte for byte.
func FuzzLoadChromeTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := exportLoaded(data)
		if err != nil {
			return
		}
		twice, err := exportLoaded(once)
		if err != nil {
			t.Fatalf("exported trace does not load: %v\n%s", err, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("exported trace changes on load → export:\nonce  %s\ntwice %s", once, twice)
		}
	})
}

// TestLoadChromeTraceOutOfRange pins how the loader treats numbers it
// cannot represent: a time beyond the simulation clock or an ID that is
// not an integer is an error, and an integral arg beyond int64 stays a
// float instead of wrapping.
func TestLoadChromeTraceOutOfRange(t *testing.T) {
	for _, in := range []string{
		`{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":1e300,"dur":5,"pid":1,"tid":1,"args":{"span_id":1}}]}`,
		`{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":1,"dur":-1e300,"pid":1,"tid":1,"args":{"span_id":1}}]}`,
		`{"traceEvents":[{"name":"e","cat":"c","ph":"i","ts":1e17,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"args":{"span_id":1e300}}]}`,
		`{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"args":{"span_id":2,"parent":1.5}}]}`,
		`{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"args":{"span_id":2,"flow_from":"1"}}]}`,
	} {
		if _, err := LoadChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("loaded %s without error", in)
		}
	}
	in := `{"traceEvents":[{"name":"e","cat":"c","ph":"i","ts":0,"pid":1,"tid":1,"args":{"big":1e300,"neg":-1e19,"n":-12}}]}`
	out, err := exportLoaded([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := `"args":{"big":1e+300,"n":-12,"neg":-10000000000000000000}`; !strings.Contains(string(out), want) {
		t.Fatalf("export of the loaded args is %s, want it to contain %s", out, want)
	}
}
