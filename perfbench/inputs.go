package main

import (
	"encoding/json"
	"math/rand/v2"

	"dcasdeque/serve"
)

// Every input a workload feeds the system is generated here from the
// run's seed and nothing else: the same seed gives byte-identical
// inputs on every commit, so a parent and a change see the same work.

// Op-stream encoding of the deque workloads: one byte per operation.
const (
	opPush   = 1 << 0 // set: push on the worker's end; clear: pop from it
	opSample = 1 << 1 // set: time this operation
)

// endStream returns the operation stream one end of the deque-ends
// workloads cycles through: a seeded random walk of pushes and pops
// whose net depth (pushes minus pops on this end) stays within
// [-bound, bound] and returns to 0 at the end of the stream, so the
// stream can be repeated indefinitely. About one op in sampleK carries
// opSample. end selects an independent stream for each end.
func endStream(seed uint64, end, n, bound, sampleK int) []byte {
	r := rand.New(rand.NewPCG(seed, uint64(end)+1))
	ops := make([]byte, 0, n+bound)
	depth := 0
	emit := func(push bool) {
		var op byte
		if push {
			op = opPush
			depth++
		} else {
			depth--
		}
		if r.IntN(sampleK) == 0 {
			op |= opSample
		}
		ops = append(ops, op)
	}
	for range n {
		switch {
		case depth == bound:
			emit(false)
		case depth == -bound:
			emit(true)
		default:
			emit(r.IntN(2) == 0)
		}
	}
	for depth != 0 {
		emit(depth < 0)
	}
	return ops
}

// echoReq is one request of the serve-echo workload: the tenant it is
// sent as, its payload, and the JSON job body carrying that payload.
type echoReq struct {
	tenant  string
	payload string
	body    []byte
}

// payloadAlphabet keeps payloads free of characters JSON would escape,
// so a request's body size follows its payload size.
const payloadAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// echoRequests returns the n requests one serve-echo client cycles
// through: payload sizes uniform in [minB, maxB] bytes and tenants drawn
// a:b = 3:1, matching the tenants' round-robin weights. client selects
// an independent sequence for each client.
func echoRequests(seed uint64, client, n, minB, maxB int) []echoReq {
	r := rand.New(rand.NewPCG(seed, 1000+uint64(client)))
	reqs := make([]echoReq, n)
	for i := range reqs {
		size := minB + r.IntN(maxB-minB+1)
		p := make([]byte, size)
		for j := range p {
			p[j] = payloadAlphabet[r.IntN(len(payloadAlphabet))]
		}
		tenant := "a"
		if r.IntN(4) == 0 {
			tenant = "b"
		}
		body, err := json.Marshal(serve.Job{Kind: "echo", Data: string(p)})
		if err != nil {
			panic(err) // a struct of strings and an int always marshals
		}
		reqs[i] = echoReq{tenant: tenant, payload: string(p), body: body}
	}
	return reqs
}
