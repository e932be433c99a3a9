package pefile

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildSample constructs a small two-section image used across tests.
func buildSample(t *testing.T) *File {
	t.Helper()
	f := New()
	code := bytes.Repeat([]byte{0x90}, 300)
	data := bytes.Repeat([]byte{0xAB}, 150)
	if _, err := f.AddSection(".text", code, SecCharacteristicsText); err != nil {
		t.Fatalf("AddSection .text: %v", err)
	}
	if _, err := f.AddSection(".data", data, SecCharacteristicsData); err != nil {
		t.Fatalf("AddSection .data: %v", err)
	}
	f.SetEntryPoint(f.SectionByName(".text").VirtualAddress)
	return f
}

func TestNewImageRoundTrip(t *testing.T) {
	f := buildSample(t)
	raw := f.Bytes()

	g, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got, want := len(g.Sections), 2; got != want {
		t.Fatalf("sections = %d, want %d", got, want)
	}
	if g.Sections[0].Name != ".text" || g.Sections[1].Name != ".data" {
		t.Errorf("section names = %q, %q", g.Sections[0].Name, g.Sections[1].Name)
	}
	if !bytes.Equal(g.Bytes(), raw) {
		t.Error("re-serialized bytes differ from original")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short", []byte("MZ")},
		{"no magic", make([]byte, 128)},
		{"bad lfanew", func() []byte {
			b := make([]byte, 128)
			b[0], b[1] = 'M', 'Z'
			b[60] = 0xF0 // lfanew beyond file
			b[61] = 0xFF
			return b
		}()},
		{"no PE sig", func() []byte {
			b := make([]byte, 256)
			b[0], b[1] = 'M', 'Z'
			b[60] = 64
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.b); err == nil {
				t.Error("Parse accepted malformed input")
			}
		})
	}
}

func TestSectionAlignmentInvariants(t *testing.T) {
	f := buildSample(t)
	f.Layout()
	for _, s := range f.Sections {
		if s.SizeOfRawData%f.Optional.FileAlignment != 0 {
			t.Errorf("section %q raw size %#x not file-aligned", s.Name, s.SizeOfRawData)
		}
		if s.PointerToRawData%f.Optional.FileAlignment != 0 {
			t.Errorf("section %q raw pointer %#x not file-aligned", s.Name, s.PointerToRawData)
		}
		if s.VirtualAddress%f.Optional.SectionAlignment != 0 {
			t.Errorf("section %q VA %#x not section-aligned", s.Name, s.VirtualAddress)
		}
		if uint32(len(s.Data)) != s.SizeOfRawData {
			t.Errorf("section %q len(Data)=%d != SizeOfRawData=%d", s.Name, len(s.Data), s.SizeOfRawData)
		}
	}
	if f.Optional.SizeOfImage%f.Optional.SectionAlignment != 0 {
		t.Errorf("SizeOfImage %#x not section-aligned", f.Optional.SizeOfImage)
	}
}

func TestAddSectionAssignsDisjointVAs(t *testing.T) {
	f := buildSample(t)
	s3, err := f.AddSection(".mp", make([]byte, 700), SecCharacteristicsText)
	if err != nil {
		t.Fatalf("AddSection: %v", err)
	}
	for _, s := range f.Sections[:2] {
		if s3.Contains(s.VirtualAddress) || s.Contains(s3.VirtualAddress) {
			t.Errorf("section %q VA range overlaps %q", s3.Name, s.Name)
		}
	}
	// Round-trip survives the added section.
	g, err := Parse(f.Bytes())
	if err != nil {
		t.Fatalf("Parse after AddSection: %v", err)
	}
	if g.SectionByName(".mp") == nil {
		t.Error("added section lost on round trip")
	}
}

func TestAddSectionNameTooLong(t *testing.T) {
	f := New()
	if _, err := f.AddSection("waytoolongname", nil, SecCode); err == nil {
		t.Error("AddSection accepted a 14-byte name")
	}
}

func TestRenameSection(t *testing.T) {
	f := buildSample(t)
	if err := f.RenameSection(".text", ".blob"); err != nil {
		t.Fatalf("RenameSection: %v", err)
	}
	if f.SectionByName(".blob") == nil {
		t.Fatal("renamed section not found")
	}
	if err := f.RenameSection(".blob", "far-too-long"); err == nil {
		t.Error("RenameSection accepted an over-long name")
	}
	if err := f.RenameSection(".gone", ".x"); err == nil {
		t.Error("RenameSection succeeded on a missing section")
	}
}

func TestEntryPointAndSectionAt(t *testing.T) {
	f := buildSample(t)
	text := f.SectionByName(".text")
	f.SetEntryPoint(text.VirtualAddress + 16)
	if got := f.EntrySection(); got != text {
		t.Errorf("EntrySection = %v, want .text", got)
	}
	if got := f.SectionAt(0); got != nil {
		t.Errorf("SectionAt(0) = %q, want nil", got.Name)
	}
}

func TestRVAOffsetInverse(t *testing.T) {
	f := buildSample(t)
	f.Layout()
	text := f.SectionByName(".text")
	for _, delta := range []uint32{0, 1, 17, 299} {
		rva := text.VirtualAddress + delta
		off, ok := f.RVAToOffset(rva)
		if !ok {
			t.Fatalf("RVAToOffset(%#x) failed", rva)
		}
		if want := text.PointerToRawData + delta; off != want {
			t.Errorf("RVAToOffset(%#x) = %#x, want %#x", rva, off, want)
		}
	}
	if _, ok := f.RVAToOffset(0xdeadbeef); ok {
		t.Error("RVAToOffset accepted an unmapped RVA")
	}
}

func TestOverlayRoundTrip(t *testing.T) {
	f := buildSample(t)
	f.AppendOverlay([]byte("OVERLAYDATA"))
	g, err := Parse(f.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !bytes.Equal(g.Overlay, []byte("OVERLAYDATA")) {
		t.Errorf("overlay = %q", g.Overlay)
	}
}

func TestHeaderEditsSurviveRoundTrip(t *testing.T) {
	f := buildSample(t)
	f.SetTimestamp(0x5EADBEEF)
	g, err := Parse(f.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.FileHeader.TimeDateStamp != 0x5EADBEEF {
		t.Errorf("timestamp = %#x", g.FileHeader.TimeDateStamp)
	}
}

func TestSlackRegions(t *testing.T) {
	f := buildSample(t)
	f.Layout()
	regs := f.SlackRegions()
	if len(regs) != 2 {
		t.Fatalf("slack regions = %d, want 2", len(regs))
	}
	// .text holds 300 bytes content in a 512-byte aligned chunk.
	if regs[0].Length != 512-300 {
		t.Errorf(".text slack = %d, want %d", regs[0].Length, 512-300)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := buildSample(t)
	g := f.Clone()
	g.Sections[0].Data[0] = 0xFF
	g.SetTimestamp(42)
	if f.Sections[0].Data[0] == 0xFF {
		t.Error("clone shares section data with original")
	}
	if f.FileHeader.TimeDateStamp == 42 {
		t.Error("clone shares header with original")
	}
}

func TestCodeAndDataSectionFilters(t *testing.T) {
	f := buildSample(t)
	if _, err := f.AddSection(".rsrc", make([]byte, 32), SecCharacteristicsRsrc); err != nil {
		t.Fatal(err)
	}
	if got := len(f.CodeSections()); got != 1 {
		t.Errorf("CodeSections = %d, want 1", got)
	}
	if got := len(f.DataSections()); got != 1 {
		t.Errorf("DataSections = %d, want 1", got)
	}
}

// TestQuickRoundTrip is the property test: any image built from random
// section contents parses back to identical bytes.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(nSec uint8, seed int64) bool {
		n := int(nSec)%4 + 1
		local := rand.New(rand.NewSource(seed))
		f := New()
		for i := 0; i < n; i++ {
			size := local.Intn(2000)
			data := make([]byte, size)
			local.Read(data)
			chars := uint32(SecCharacteristicsText)
			if i%2 == 1 {
				chars = SecCharacteristicsData
			}
			name := string([]byte{'.', byte('a' + i)})
			if _, err := f.AddSection(name, data, chars); err != nil {
				return false
			}
		}
		if local.Intn(2) == 1 {
			ov := make([]byte, local.Intn(300))
			local.Read(ov)
			f.AppendOverlay(ov)
		}
		raw := f.Bytes()
		g, err := Parse(raw)
		if err != nil {
			return false
		}
		return bytes.Equal(g.Bytes(), raw)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSizeMatchesBytes(t *testing.T) {
	f := buildSample(t)
	f.AppendOverlay([]byte{1, 2, 3})
	if got, want := f.Size(), len(f.Bytes()); got != want {
		t.Errorf("Size = %d, len(Bytes) = %d", got, want)
	}
}
