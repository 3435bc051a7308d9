package stub

import (
	"errors"
	"testing"
)

var testQuery = Item{Name: "n1-7." + Zone, Subnet: [3]byte{20, 3, 9}}

// answerTo builds the response a correct server gives to sent: question
// echoed, one compressed A answer, OPT with the ECS echo at scope.
func answerTo(sent []byte, scope byte) []byte {
	q := questionLen(sent)
	resp := append([]byte(nil), sent[:12+q]...)
	resp[2], resp[3] = 0x81, 0x80 // QR RD RA, NOERROR
	resp[7] = 1                   // ANCOUNT
	resp = append(resp, 0xc0, 12, 0, typeA, 0, classIN, 0, 0, 14, 16, 0, 4)
	resp = append(resp, Answer[:]...)
	resp = append(resp, sent[12+q:]...) // the query's OPT record
	resp[len(resp)-4] = scope
	return resp
}

func TestCheckAcceptsCorrectAnswer(t *testing.T) {
	sent := AppendQuery(nil, 0xbeef, testQuery)
	for _, scope := range []byte{0, 24} {
		if err := Check(answerTo(sent, scope), sent, scope); err != nil {
			t.Errorf("scope %d: %v", scope, err)
		}
	}
}

func TestCheckRejects(t *testing.T) {
	sent := AppendQuery(nil, 0xbeef, testQuery)
	good := answerTo(sent, 24)
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
		want   error
	}{
		{"wrong id", func(b []byte) []byte { b[1] ^= 1; return b }, ErrID},
		{"query bit", func(b []byte) []byte { b[2] &^= 0x80; return b }, ErrNotReply},
		{"truncated bit", func(b []byte) []byte { b[2] |= 0x02; return b }, ErrNotReply},
		{"servfail", func(b []byte) []byte { b[3] |= 2; return b }, ErrRCode},
		{"other question", func(b []byte) []byte { b[13] ^= 0x01; return b }, ErrQuestion},
		{"no answer", func(b []byte) []byte { b[7] = 0; return b }, ErrAnswer},
		{"two answers", func(b []byte) []byte { b[7] = 2; return b }, ErrAnswer},
		{"wrong address", func(b []byte) []byte { b[12+questionLen(sent)+15] ^= 1; return b }, ErrAnswer},
		{"wrong scope", func(b []byte) []byte { b[len(b)-4] = 16; return b }, ErrECSScope},
		{"wrong source length", func(b []byte) []byte { b[len(b)-5] = 16; return b }, ErrECSSubnet},
		{"wrong subnet", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrECSSubnet},
		{"no opt record", func(b []byte) []byte { b[11] = 0; return b[:len(b)-22] }, ErrNoECS},
		{"extended rcode", func(b []byte) []byte { b[len(b)-17] = 1; return b }, ErrRCode},
	} {
		resp := tc.mutate(append([]byte(nil), good...))
		if err := Check(resp, sent, 24); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// Every proper prefix of a good answer is rejected, and none panics.
func TestCheckRejectsEveryTruncation(t *testing.T) {
	sent := AppendQuery(nil, 0xbeef, testQuery)
	good := answerTo(sent, 24)
	for n := 0; n < len(good); n++ {
		if err := Check(good[:n], sent, 24); err == nil {
			t.Errorf("accepted a packet cut to %d of %d bytes", n, len(good))
		}
	}
}

func TestAppendQueryLayout(t *testing.T) {
	sent := AppendQuery(nil, 0xbeef, testQuery)
	if want := 12 + questionLen(sent) + 22; len(sent) != want {
		t.Fatalf("query is %d bytes, want %d", len(sent), want)
	}
	if sent[0] != 0xbe || sent[1] != 0xef || sent[2] != 0x01 || sent[5] != 1 || sent[11] != 1 {
		t.Errorf("header % x", sent[:12])
	}
	if got := string(sent[len(sent)-3:]); got != string(testQuery.Subnet[:]) {
		t.Errorf("ECS address bytes % x", got)
	}
}
