package curve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"unicode"

	"github.com/onioncurve/onion/internal/geom"
)

var (
	// ErrMismatch reports keys, a record or a peer written under another
	// curve than the one opening or receiving them: a key means a point
	// only under the bijection that wrote it.
	ErrMismatch = errors.New("curve: written by a different curve")
	// ErrBadIdentity reports a curve identity record that does not parse.
	ErrBadIdentity = errors.New("curve: malformed curve identity")
)

// Identity names one bijection: the curve's name and universe, plus a
// fingerprint of its cell order. The name alone cannot tell variants of
// one family apart (every Onion3D segment order is named "onion"), so
// the fingerprint hashes the cells of the curve's innermost keys — the
// last fingerprintKeys of the key space, where the onion curves' inner
// layers show every segment order — and of eight keys spread across the
// whole range. Build it once per open with IdentityOf; compare two
// computed identities with ==, and one read from a record with Check.
type Identity struct {
	Name        string
	Dims        int
	Side        uint32
	Fingerprint uint64 // never 0: a record with a zero fingerprint is malformed
}

// fingerprintKeys is how many trailing keys the fingerprint hashes.
const fingerprintKeys = 2048

// IdentityOf computes c's identity: fingerprintKeys + 8 Coords calls.
func IdentityOf(c Curve) Identity {
	u := c.Universe()
	n := u.Size()
	h := fnv.New64a()
	p := make(geom.Point, u.Dims())
	var buf [4]byte
	add := func(k uint64) {
		for _, v := range c.Coords(k, p) {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	for k := n - min(n, fingerprintKeys); k < n; k++ {
		add(k)
	}
	q, r := (n-1)/7, (n-1)%7
	for j := uint64(0); j < 8; j++ {
		add(j*q + j*r/7) // j(n-1)/7 without overflow
	}
	fp := h.Sum64()
	if fp == 0 {
		fp = 1 // ParseIdentity refuses 0
	}
	return Identity{Name: c.Name(), Dims: u.Dims(), Side: u.Side(), Fingerprint: fp}
}

// Check returns nil when got, an identity read from a record, names the
// same bijection as want, and an error wrapping ErrMismatch otherwise.
func (want Identity) Check(got Identity) error {
	if got == want {
		return nil
	}
	return want.Mismatch(got)
}

// CheckRecord parses a standalone record and checks it as Check does.
func (want Identity) CheckRecord(data []byte) error {
	got, err := ParseRecord(data)
	if err != nil {
		return err
	}
	return want.Check(got)
}

// Mismatch is the error reporting got where want was required.
func (want Identity) Mismatch(got Identity) error {
	return fmt.Errorf("%w: records %v, opened with %v", ErrMismatch, got, want)
}

func (id Identity) String() string {
	return fmt.Sprintf("%s %dD side %d fingerprint %016x", id.Name, id.Dims, id.Side, id.Fingerprint)
}

// Lines renders id as the four record lines ParseIdentity reads.
func (id Identity) Lines() string {
	return fmt.Sprintf("curve %s\ndims %d\nside %d\nfingerprint %016x\n", id.Name, id.Dims, id.Side, id.Fingerprint)
}

// recordHeader opens a standalone identity record.
const recordHeader = "onion-curve v1"

// MaxRecordBytes bounds an identity record and the manifests that embed
// one: real ones are a few dozen bytes, so anything longer is not one.
const MaxRecordBytes = 1 << 10

// Record renders id as a standalone record: a header line, then Lines.
func (id Identity) Record() []byte {
	return []byte(recordHeader + "\n" + id.Lines())
}

// ParseRecord parses a standalone record that Record rendered. Every
// failure wraps ErrBadIdentity.
func ParseRecord(data []byte) (Identity, error) {
	if len(data) > MaxRecordBytes {
		return Identity{}, fmt.Errorf("%w: record of %d bytes", ErrBadIdentity, len(data))
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) != 6 || lines[0] != recordHeader || lines[5] != "" {
		return Identity{}, fmt.Errorf("%w: want the %q header, four lines and a final newline", ErrBadIdentity, recordHeader)
	}
	return ParseIdentity(lines[1:5])
}

// ParseIdentity parses the four record lines Lines renders: curve, dims,
// side and fingerprint. Every failure wraps ErrBadIdentity.
func ParseIdentity(lines []string) (Identity, error) {
	var id Identity
	if len(lines) != 4 {
		return id, fmt.Errorf("%w: %d lines", ErrBadIdentity, len(lines))
	}
	name, err := field(lines[0], "curve")
	if err == nil && (name == "" || strings.IndexFunc(name, unicode.IsSpace) >= 0) {
		err = fmt.Errorf("%w: curve name %q", ErrBadIdentity, name)
	}
	if err != nil {
		return id, err
	}
	id.Name = name
	dims, err := number(lines[1], "dims", 10, 8)
	if err != nil {
		return id, err
	}
	if dims == 0 {
		return id, fmt.Errorf("%w: dims 0", ErrBadIdentity)
	}
	id.Dims = int(dims)
	side, err := number(lines[2], "side", 10, 32)
	if err != nil {
		return id, err
	}
	id.Side = uint32(side)
	v, err := field(lines[3], "fingerprint")
	if err != nil {
		return id, err
	}
	if len(v) != 16 {
		return id, fmt.Errorf("%w: fingerprint %q is not 16 hex digits", ErrBadIdentity, v)
	}
	if id.Fingerprint, err = number(lines[3], "fingerprint", 16, 64); err != nil {
		return id, err
	}
	if id.Fingerprint == 0 {
		return id, fmt.Errorf("%w: zero fingerprint", ErrBadIdentity)
	}
	return id, nil
}

// field returns the value of the record line "key value".
func field(line, key string) (string, error) {
	k, v, ok := strings.Cut(line, " ")
	if !ok || k != key {
		return "", fmt.Errorf("%w: want a %q line, got %q", ErrBadIdentity, key, line)
	}
	return v, nil
}

// number parses the record line "key n" with n an unsigned number of at
// most bits bits, written in base base.
func number(line, key string, base, bits int) (uint64, error) {
	v, err := field(line, key)
	if err != nil {
		return 0, err
	}
	n, perr := strconv.ParseUint(v, base, bits)
	if perr != nil {
		return 0, fmt.Errorf("%w: %s %q", ErrBadIdentity, key, v)
	}
	return n, nil
}

// ManifestNumber parses line as prefix followed by an unsigned decimal
// number that is the whole rest of the line. Unlike fmt.Sscanf it accepts
// no trailing bytes, sign, space or base prefix. The record files beside
// the identity parse their numbers with it: the engine and sharded
// snapshot manifests and a replication node's REPL_STATE.
func ManifestNumber(line, prefix string) (uint64, bool) {
	v, ok := strings.CutPrefix(line, prefix)
	n, err := strconv.ParseUint(v, 10, 64)
	return n, ok && err == nil
}
