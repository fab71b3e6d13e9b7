// Package stack provides the per-host protocol stack scaffolding: a
// composable layer chain mirroring the paper's interception architecture
// (Figure 1), a NIC adapter at the bottom, an IPv4 demultiplexer, UDP
// sockets, and the Host aggregate.
//
// The layer chain is the reproduction of the paper's key structural
// property: the FIE/FAE "is inserted between the network interface card's
// device driver and the IP protocol stack, and therefore can intercept
// all incoming/outgoing packets" (Section 3.3). Here a host is assembled
// as NIC ← RLL ← FIE ← [Rether] ← IP, and each element only knows its
// neighbours through the Down/Up interfaces.
package stack

import (
	"virtualwire/internal/ether"
)

// Down is the view a layer has of its lower neighbour: push a frame one
// step toward the wire.
type Down interface {
	SendDown(fr *ether.Frame)
}

// Up is the view a layer has of its upper neighbour: push a received
// frame one step toward the application.
type Up interface {
	DeliverUp(fr *ether.Frame)
}

// Layer is an element of the per-host protocol chain. A layer receives
// outbound frames via SendDown (called by the layer above) and inbound
// frames via DeliverUp (called by the layer below), and forwards them —
// possibly delayed, duplicated, modified or consumed — to its neighbours.
type Layer interface {
	Down
	Up
	// SetBelow wires the lower neighbour the layer sends outbound
	// frames to.
	SetBelow(d Down)
	// SetAbove wires the upper neighbour the layer delivers inbound
	// frames to.
	SetAbove(u Up)
}

// Chain wires nic ← layers[0] ← layers[1] ← ... ← top and returns the
// Down endpoint the top-most protocol should transmit through. The NIC's
// receive upcall is routed into the bottom of the chain.
func Chain(nic *ether.NIC, top Up, layers ...Layer) Down {
	var down Down = nicDown{nic}
	var lowestUp Up = top
	// Wire from the bottom up: each layer's below is the chain so far.
	for i, l := range layers {
		l.SetBelow(down)
		down = l
		_ = i
	}
	// Wire the upward path: NIC → layers[0] → ... → top.
	if len(layers) == 0 {
		nic.SetRecv(func(fr *ether.Frame) { top.DeliverUp(fr) })
		return down
	}
	for i := len(layers) - 1; i >= 0; i-- {
		layers[i].SetAbove(lowestUp)
		lowestUp = layers[i]
	}
	bottom := layers[0]
	nic.SetRecv(func(fr *ether.Frame) { bottom.DeliverUp(fr) })
	return down
}

// nicDown adapts a NIC to the Down interface.
type nicDown struct{ nic *ether.NIC }

func (n nicDown) SendDown(fr *ether.Frame) { n.nic.Send(fr) }

// Base is a pass-through Layer for embedding-free reuse: concrete layers
// hold a Base by value and override the methods they care about by
// delegating to Below()/Above(). The zero value forwards nothing until
// wired.
type Base struct {
	below Down
	above Up
}

// SetBelow implements Layer.
func (b *Base) SetBelow(d Down) { b.below = d }

// SetAbove implements Layer.
func (b *Base) SetAbove(u Up) { b.above = u }

// PassDown forwards a frame to the lower neighbour if wired.
func (b *Base) PassDown(fr *ether.Frame) {
	if b.below != nil {
		b.below.SendDown(fr)
	}
}

// PassUp forwards a frame to the upper neighbour if wired.
func (b *Base) PassUp(fr *ether.Frame) {
	if b.above != nil {
		b.above.DeliverUp(fr)
	}
}
