package dnswire

import (
	"strings"
	"testing"
)

func TestParseNameCanonicalizes(t *testing.T) {
	cases := []struct {
		in   string
		want Name
	}{
		{"example.com", "example.com."},
		{"example.com.", "example.com."},
		{"EXAMPLE.COM", "example.com."},
		{"WwW.Example.Com.", "www.example.com."},
		{".", "."},
		{"a", "a."},
		{"xn--nxasmq6b.example", "xn--nxasmq6b.example."},
		{"1-2-3-4.scan.example.org", "1-2-3-4.scan.example.org."},
	}
	for _, c := range cases {
		got, err := ParseName(c.in)
		if err != nil {
			t.Errorf("ParseName(%q): unexpected error %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseNameErrors(t *testing.T) {
	long := strings.Repeat("a", 64)
	okLabel := strings.Repeat("b", 63)
	tooLong := strings.Repeat(okLabel+".", 4) // 4*64 = 256 > 255
	cases := []struct {
		in  string
		err error
	}{
		{"", ErrEmptyName},
		{"..", ErrEmptyLabel},
		{"a..b", ErrEmptyLabel},
		{long + ".com", ErrLabelTooLong},
		{tooLong, ErrNameTooLong},
		{"bad label.com", ErrBadLabelChar},
		{"tab\tlabel.com", ErrBadLabelChar},
	}
	for _, c := range cases {
		_, err := ParseName(c.in)
		if err != c.err {
			t.Errorf("ParseName(%q) error = %v, want %v", c.in, err, c.err)
		}
	}
}

func TestNameMaxLengthBoundary(t *testing.T) {
	// 253 presentation characters plus root: exactly 255 wire octets.
	label := strings.Repeat("a", 63)
	n := label + "." + label + "." + label + "." + strings.Repeat("a", 61)
	if _, err := ParseName(n); err != nil {
		t.Fatalf("255-octet name rejected: %v", err)
	}
	if _, err := ParseName(n + "a"); err != ErrNameTooLong {
		t.Fatalf("256-octet name: got %v, want ErrNameTooLong", err)
	}
}

func TestNameLabels(t *testing.T) {
	n := MustParseName("www.example.com")
	labels := n.Labels()
	want := []string{"www", "example", "com"}
	if len(labels) != len(want) {
		t.Fatalf("Labels() = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("Labels()[%d] = %q, want %q", i, labels[i], want[i])
		}
	}
	if got := n.CountLabels(); got != 3 {
		t.Errorf("CountLabels() = %d, want 3", got)
	}
	if got := Root.CountLabels(); got != 0 {
		t.Errorf("root CountLabels() = %d, want 0", got)
	}
	if Root.Labels() != nil {
		t.Errorf("root Labels() = %v, want nil", Root.Labels())
	}
}

func TestNameParent(t *testing.T) {
	cases := []struct{ in, want Name }{
		{"www.example.com.", "example.com."},
		{"example.com.", "com."},
		{"com.", "."},
		{".", "."},
	}
	for _, c := range cases {
		if got := c.in.Parent(); got != c.want {
			t.Errorf("%q.Parent() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsSubdomainOf(t *testing.T) {
	cases := []struct {
		n, zone Name
		want    bool
	}{
		{"www.example.com.", "example.com.", true},
		{"example.com.", "example.com.", true},
		{"example.com.", "www.example.com.", false},
		{"notexample.com.", "example.com.", false},
		{"aexample.com.", "example.com.", false},
		{"anything.org.", ".", true},
		{".", ".", true},
		// Label boundaries: the zone's text must follow a dot.
		{"xscan.example.org.", "scan.example.org.", false},
		{"x.scan.example.org.", "scan.example.org.", true},
		{"scan.example.org.", "xscan.example.org.", false},
		{"example.org.", "scan.example.org.", false},
		{"a.b.", "b.", true},
		{"ab.", "b.", false},
		{"b.", ".", true},
		{".", "b.", false},
		{"org.", "org.", true},
		{"org.", "rg.", false},
	}
	for _, c := range cases {
		if got := c.n.IsSubdomainOf(c.zone); got != c.want {
			t.Errorf("%q.IsSubdomainOf(%q) = %v, want %v", c.n, c.zone, got, c.want)
		}
	}
	// The check compares in place: no "."+zone is built, which for a
	// zone past 32 bytes is a heap string.
	n, zone := Name("probe-1.measurement.scan.ecs-study.example.org."), Name("measurement.scan.ecs-study.example.org.")
	if allocs := testing.AllocsPerRun(100, func() { n.IsSubdomainOf(zone) }); allocs != 0 && !raceEnabled {
		t.Fatalf("IsSubdomainOf allocates %.0f objects, want 0", allocs)
	}
}

func TestSLD(t *testing.T) {
	cases := []struct{ in, want Name }{
		{"www.cnn.com.", "cnn.com."},
		{"a.b.c.d.ac.uk.", "ac.uk."},
		{"cnn.com.", "cnn.com."},
		{"com.", "com."},
		{".", "."},
	}
	for _, c := range cases {
		if got := c.in.SLD(); got != c.want {
			t.Errorf("%q.SLD() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPrepend(t *testing.T) {
	n := MustParseName("example.com")
	got, err := n.Prepend("www")
	if err != nil {
		t.Fatal(err)
	}
	if got != "www.example.com." {
		t.Fatalf("Prepend = %q", got)
	}
	got, err = Root.Prepend("com")
	if err != nil {
		t.Fatal(err)
	}
	if got != "com." {
		t.Fatalf("Prepend on root = %q", got)
	}
	if _, err := n.Prepend("bad label"); err == nil {
		t.Fatal("Prepend with invalid label: want error")
	}
}

func TestMustParseNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseName on invalid input did not panic")
		}
	}()
	MustParseName("")
}
