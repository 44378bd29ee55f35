package main

import (
	"crypto/rsa"
	"fmt"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/workload"
)

// env is the material one invocation builds once, before any clock
// starts: the bank's account names, the CA, the provider key, and one
// certified synthetic client per load client. No round's set-up pays
// for RSA key generation: these keys are made here, and the fleet's in
// warmFleetKeys before each build.
type env struct {
	seed  int64
	names []string

	caPub   *rsa.PublicKey
	provKey *rsa.PrivateKey
	palMeas cryptoutil.Digest
	clients []*workload.SyntheticClient

	// fleetBuilds counts workload.NewFleet calls, whose keys come from
	// the process-wide pooled-key cursor (see warmFleetKeys).
	fleetBuilds  int
	probeOutcome string
}

// Pooled-key indices of the single-provider CA and provider keys.
const (
	caKeyIndex       = 0
	providerKeyIndex = 1
)

func newEnv(sp *spec, seed int64) (*env, error) {
	e := &env{seed: seed, names: accountNames(sp.accounts),
		palMeas: cryptoutil.SHA1([]byte("perfbench-confirm-pal"))}
	if !sp.confirms {
		return e, nil
	}
	caKey, err := cryptoutil.PooledKey(caKeyIndex)
	if err != nil {
		return nil, err
	}
	if e.provKey, err = cryptoutil.PooledKey(providerKeyIndex); err != nil {
		return nil, err
	}
	ca := attest.NewPrivacyCA("perfbench-ca", caKey, nil, sim.NewRand(uint64(seed)^0xCA))
	e.caPub = ca.PublicKey()
	scheme, err := cryptoutil.SchemeByName("ed25519")
	if err != nil {
		return nil, err
	}
	for c := 0; c < sp.clients; c++ {
		client, err := workload.NewSyntheticClientScheme(ca, fmt.Sprintf("perfbench-client-%d", c),
			e.palMeas, sim.NewRand(uint64(seed)^uint64(c+1)<<32), cryptoutil.DefaultRSABits, scheme)
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, client)
	}
	return e, nil
}

// fleetPoolKeys is how many pooled keys one workload.NewFleet call with
// two shards draws: the client machine's EK and AIK, the CA key, and one
// key per shard.
const fleetPoolKeys = 5

// warmFleetKeys generates the pooled keys the next workload.NewFleet
// call will draw, so that call's set-up time holds no key generation.
func (e *env) warmFleetKeys() error {
	e.fleetBuilds++
	for i := 0; i < e.fleetBuilds*fleetPoolKeys; i++ {
		if _, err := cryptoutil.PooledKey(i); err != nil {
			return err
		}
	}
	return nil
}
