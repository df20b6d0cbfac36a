package synth

import (
	"fmt"
	"math/rand"

	"blueskies/internal/core"
	"blueskies/internal/whois"
)

// Named alternative handle providers observed in §5 (Figure 3), with
// their absolute subdomain counts.
var namedProviders = []struct {
	Domain string
	Count  int
	CCTLD  bool
}{
	{"swifties.social", 256, false},
	{"tired.io", 179, false},
	{"vibes.cool", 133, false},
	{"github.io", 35, false},
}

// TLD mix of the synthetic self-managed domain population.
var tldMix = []struct {
	TLD   string
	Share float64
	CCTLD bool
}{
	{"com", 0.42, false},
	{"net", 0.08, false},
	{"org", 0.07, false},
	{"io", 0.06, false},
	{"de", 0.05, true},
	{"jp", 0.05, true},
	{"com.br", 0.03, true},
	{"co.uk", 0.03, true},
	{"fr", 0.025, true},
	{"social", 0.03, false},
	{"dev", 0.03, false},
	{"app", 0.025, false},
	{"me", 0.02, false},
	{"xyz", 0.02, false},
	{"cool", 0.015, false},
	{"online", 0.015, false},
	{"art", 0.015, false},
	{"blog", 0.01, false},
	{"cloud", 0.01, false},
	{"site", 0.01, false},
}

// Registrar shares among IANA-identified domains (Table 2).
var registrarShares = []struct {
	Reg   whois.Registrar
	Share float64
}{
	{whois.Registrar{IANAID: 1068, Name: "NameCheap, Inc."}, 0.2094},
	{whois.Registrar{IANAID: 1910, Name: "CloudFlare, Inc."}, 0.1146},
	{whois.Registrar{IANAID: 895, Name: "Squarespace Domains"}, 0.1130},
	{whois.Registrar{IANAID: 146, Name: "GoDaddy.com, LLC"}, 0.0719},
	{whois.Registrar{IANAID: 1861, Name: "Porkbun, LLC"}, 0.0685},
	{whois.Registrar{IANAID: 69, Name: "Tucows Domains Inc."}, 0.0593},
	{whois.Registrar{IANAID: 49, Name: "GMO Internet Group"}, 0.0456},
}

// tailRegistrarCount completes the paper's 249 observed registrars.
const tailRegistrarCount = 242

// Handle-verification shares (§5, Validating Handle Ownership).
const (
	shareDNSTXT = 0.987
	// bskySocialShare of all FQDN handles live under bsky.social.
	bskySocialShare = 0.989
	// trancoShare of registered domains appear in the top-1M ranking.
	trancoShare = 0.028
	// whoisFailShare of domains had no WHOIS data; of the scanned,
	// ccTLD-policy entries lack IANA IDs (92 % scanned, 76 % with ID).
	whoisFailShare = 0.08
	// finalToBskyShare of handle updates settle under bsky.social.
	finalToBskyShare = 0.7574
)

// genIdentity assigns handles, DID methods, ownership proofs, builds
// the registered-domain population with registrars, and the handle
// update stream. tag prefixes synthetic domain names so independently
// generated partitions (one per simulated crawl) register disjoint
// domain populations ("" for a monolithic corpus).
func genIdentity(ds *core.Dataset, rng *rand.Rand, tag string) {
	n := len(ds.Users)
	altN := scaled(TargetAltHandles, ds.Scale, 80)
	if altN > n/2 {
		altN = n / 2
	}

	// Build the domain population first: named providers keep their
	// absolute subdomain counts (scaled down only when tiny worlds
	// can't fit them), the rest of the alt handles spread 1–4 per
	// registered domain.
	var domains []core.Domain
	remaining := altN
	for _, p := range namedProviders {
		c := p.Count
		if ds.Scale > 20 {
			c = max(2, p.Count*20/ds.Scale)
		}
		if c > remaining/2 {
			c = remaining / 2
		}
		domains = append(domains, core.Domain{Name: p.Domain, CCTLD: p.CCTLD, Subdomains: c})
		remaining -= c
	}
	idx := 0
	for remaining > 0 {
		sub := 1
		if rng.Float64() < 0.08 {
			sub = 2 + rng.Intn(3)
		}
		if sub > remaining {
			sub = remaining
		}
		tld := pickTLD(rng)
		domains = append(domains, core.Domain{
			Name:       fmt.Sprintf("%sdomain%06d.%s", tag, idx, tld.TLD),
			CCTLD:      tld.CCTLD,
			Subdomains: sub,
		})
		remaining -= sub
		idx++
	}

	// Registrar assignment + Tranco ranks.
	for i := range domains {
		d := &domains[i]
		if rng.Float64() < trancoShare {
			d.TrancoRank = 1 + rng.Intn(1_000_000)
		}
		if rng.Float64() < whoisFailShare {
			continue // WHOIS lookup failed entirely
		}
		if d.CCTLD {
			// ccTLD registries omit IANA IDs (§5).
			d.RegistrarName = fmt.Sprintf("Local %s Registry Member", d.Name)
			continue
		}
		d.RegistrarName, d.IANAID = pickRegistrar(rng)
	}
	ds.Domains = domains

	// Assign handles: altN users get FQDNs under the domain
	// population; everyone else is custodial under bsky.social.
	perm := rng.Perm(n)
	altUsers := perm[:altN]
	cursor := 0
	domCursor := 0
	used := 0
	var buf []byte
	for _, ui := range altUsers {
		for domCursor < len(domains) && used >= domains[domCursor].Subdomains {
			domCursor++
			used = 0
		}
		dom := "fallback.example"
		if domCursor < len(domains) {
			dom = domains[domCursor].Name
			used++
		}
		u := &ds.Users[ui]
		u.Handle = padded(&buf, "user", int64(cursor), 7, "."+dom)
		u.DIDMethod = "plc"
		if rng.Float64() < shareDNSTXT {
			u.Proof = core.ProofDNSTXT
		} else {
			u.Proof = core.ProofWellKnown
		}
		cursor++
	}
	// did:web identities: six absolute (§5 found exactly six).
	webN := min(TargetDIDWeb, altN)
	for i := 0; i < webN; i++ {
		u := &ds.Users[altUsers[i]]
		u.DIDMethod = "web"
		u.DID = "did:web:" + u.Handle
	}
	for _, ui := range perm[altN:] {
		u := &ds.Users[ui]
		u.Handle = padded(&buf, "user", int64(ui), 7, ".bsky.social")
		u.DIDMethod = "plc"
		u.Proof = core.ProofManaged
	}

	// Handle updates (§5): more updates than unique DIDs (some users
	// flip back and forth); 75.74 % settle under bsky.social.
	updates := scaled(TargetHandleUpdates, ds.Scale, 60)
	uniqueDIDs := scaled(TargetUpdatingDIDs, ds.Scale, 42)
	if uniqueDIDs > n {
		uniqueDIDs = n
	}
	if updates < uniqueDIDs {
		updates = uniqueDIDs
	}
	updaters := rng.Perm(n)[:uniqueDIDs]
	ds.HandleUpdates = make([]core.HandleUpdate, 0, updates)
	windowSecs := int64(WindowEnd.Sub(WindowStart).Seconds())
	for i := 0; i < updates; i++ {
		ui := updaters[i%uniqueDIDs]
		var newHandle string
		if rng.Float64() < finalToBskyShare {
			newHandle = padded(&buf, "renamed", int64(i), 6, ".bsky.social")
		} else {
			dom := domains[rng.Intn(len(domains))].Name
			newHandle = padded(&buf, "renamed", int64(i), 6, "."+dom)
		}
		ds.HandleUpdates = append(ds.HandleUpdates, core.HandleUpdate{
			DID:       ds.Users[ui].DID,
			NewHandle: newHandle,
			Time:      WindowStart.Add(secsDuration(rng.Int63n(windowSecs))),
		})
	}
}

func pickTLD(rng *rand.Rand) struct {
	TLD   string
	Share float64
	CCTLD bool
} {
	u := rng.Float64()
	acc := 0.0
	for _, t := range tldMix {
		acc += t.Share
		if u < acc {
			return t
		}
	}
	return tldMix[0]
}

func pickRegistrar(rng *rand.Rand) (string, int) {
	u := rng.Float64()
	acc := 0.0
	for _, rs := range registrarShares {
		acc += rs.Share
		if u < acc {
			return rs.Reg.Name, rs.Reg.IANAID
		}
	}
	// Long tail: near-uniform across the remaining registrars, so no
	// tail registrar rivals the Table 2 leaders.
	k := 1 + rng.Intn(tailRegistrarCount)
	return fmt.Sprintf("Tail Registrar %03d", k), 2000 + k
}
