package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"mpass/internal/tensor"
)

// Gob persistence for trained networks (the payload of an engine envelope,
// internal/engine).
//
// Only the architecture and the trained parameters travel: gradient
// accumulators, scratch pools, inference tables, and the Workers knob are
// runtime state, rebuilt on decode. Decoding ends with MarkWeightsChanged so
// the lookup-table fast path re-derives its byte-response tables from the
// loaded weights instead of serving stale ones.

// convNetState is the serialized form of a ConvNet.
type convNetState struct {
	Cfg   ConvConfig
	Embed tensor.Vec
	ConvW tensor.Vec
	GateW tensor.Vec
	ConvB tensor.Vec
	GateB tensor.Vec
	HidW  tensor.Vec // nil without a hidden layer
	HidB  tensor.Vec
	OutW  tensor.Vec
	OutB  tensor.Vec
}

// GobEncode implements gob.GobEncoder.
func (n *ConvNet) GobEncode() ([]byte, error) {
	st := convNetState{
		Cfg:   n.Cfg,
		Embed: n.Embed.Data,
		ConvW: n.ConvW.Data,
		GateW: n.GateW.Data,
		ConvB: n.ConvB,
		GateB: n.GateB,
		OutW:  n.OutW,
		OutB:  n.OutB,
	}
	if n.HidW != nil {
		st.HidW = n.HidW.Data
		st.HidB = n.HidB
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. The receiver is rebuilt from scratch:
// parameter storage is allocated via NewConvNet (which also validates the
// architecture), decoded weights are copied over it, and the weight-version
// counter is bumped so the next inference rebuilds the fast-path tables.
func (n *ConvNet) GobDecode(data []byte) error {
	var st convNetState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	m, err := NewConvNet(st.Cfg)
	if err != nil {
		return fmt.Errorf("nn: decoded config: %w", err)
	}
	for _, c := range []struct {
		name string
		dst  tensor.Vec
		src  tensor.Vec
	}{
		{"embed", m.Embed.Data, st.Embed},
		{"convw", m.ConvW.Data, st.ConvW},
		{"gatew", m.GateW.Data, st.GateW},
		{"convb", m.ConvB, st.ConvB},
		{"gateb", m.GateB, st.GateB},
		{"outw", m.OutW, st.OutW},
		{"outb", m.OutB, st.OutB},
	} {
		if len(c.src) != len(c.dst) {
			return fmt.Errorf("nn: decoded %s has %d values, config needs %d", c.name, len(c.src), len(c.dst))
		}
		copy(c.dst, c.src)
	}
	if m.HidW != nil {
		if len(st.HidW) != len(m.HidW.Data) || len(st.HidB) != len(m.HidB) {
			return fmt.Errorf("nn: decoded hidden layer sized %d/%d, config needs %d/%d",
				len(st.HidW), len(st.HidB), len(m.HidW.Data), len(m.HidB))
		}
		copy(m.HidW.Data, st.HidW)
		copy(m.HidB, st.HidB)
	}

	// Move the rebuilt state onto the receiver field by field — the struct
	// holds pools and an atomic pointer, so a whole-value copy is off limits.
	n.Cfg = m.Cfg
	n.Embed, n.ConvW, n.GateW = m.Embed, m.ConvW, m.GateW
	n.ConvB, n.GateB = m.ConvB, m.GateB
	n.HidW, n.HidB = m.HidW, m.HidB
	n.OutW, n.OutB = m.OutW, m.OutB
	n.gEmbed, n.gConvW, n.gGateW = m.gEmbed, m.gConvW, m.gGateW
	n.gConvB, n.gGateB = m.gConvB, m.gGateB
	n.gHidW, n.gHidB = m.gHidW, m.gHidB
	n.gOutW, n.gOutB = m.gOutW, m.gOutB
	n.paramList, n.gradList = nil, nil
	n.MarkWeightsChanged()
	return nil
}
