package core

import (
	"time"
)

// This file defines the materialized dataset model: the record structs
// of the five §3 datasets and the Dataset aggregate. See doc.go for
// how datasets compose into partitioned and disk-backed corpora.

// ProofMethod is how a handle proves domain ownership (§5).
type ProofMethod string

// Handle ownership proof methods.
const (
	ProofDNSTXT    ProofMethod = "dns-txt"     // _atproto.<handle> TXT record (98.7 %)
	ProofWellKnown ProofMethod = "well-known"  // /.well-known/atproto-did (1.3 %)
	ProofManaged   ProofMethod = "bsky-social" // custodial bsky.social subdomain
)

// User is one account in the Identifier + DID Document datasets.
//
//wire:v3 fields=14
type User struct {
	DID       string
	Handle    string
	DIDMethod string // "plc" or "web"
	PDS       string // hosting PDS label
	Proof     ProofMethod
	CreatedAt time.Time
	Lang      string // dominant self-assigned post language ("" = never posted)
	// Social graph degree (follow operations).
	Followers int
	Following int
	// Activity totals accumulated from the repository snapshot.
	Posts   int
	Likes   int
	Reposts int
	Blocks  int // blocks received
	Deleted bool
}

// Post is one post from the Repositories dataset.
//
//wire:v3 fields=8
type Post struct {
	URI       string
	AuthorIdx int // index into Dataset.Users
	Lang      string
	CreatedAt time.Time
	Likes     int
	Reposts   int
	HasMedia  bool
	AltText   bool // media carries alt text
}

// DayActivity is one day of platform activity (Figure 1 / Figure 2).
//
//wire:v3 fields=8
type DayActivity struct {
	Date        time.Time
	ActiveUsers int
	Posts       int
	Likes       int
	Reposts     int
	Follows     int
	Blocks      int
	// ActiveByLang maps language → active users that day (Figure 2).
	ActiveByLang map[string]int
}

// EventCounts aggregates Firehose event types (Table 1).
//
//wire:v3 fields=4
type EventCounts struct {
	Commits   int64
	Identity  int64
	Handle    int64
	Tombstone int64
}

// Total sums all event types.
func (e EventCounts) Total() int64 { return e.Commits + e.Identity + e.Handle + e.Tombstone }

// SubjectKind classifies a label's target (Table 4).
type SubjectKind string

// Label target kinds.
const (
	SubjectPost    SubjectKind = "post"
	SubjectAccount SubjectKind = "account"
	SubjectMedia   SubjectKind = "banner/avatar"
	SubjectOther   SubjectKind = "other"
)

// Label is one labeling interaction from the Labeling Services dataset.
//
//wire:v3 fields=8
type Label struct {
	Src     string // labeler DID
	URI     string // subject
	Val     string
	Neg     bool
	Kind    SubjectKind
	Applied time.Time
	// SubjectCreated is when the labeled object was created; reaction
	// time = Applied − SubjectCreated (Figures 5/6, Table 6).
	SubjectCreated time.Time
	// FreshSubject marks subjects created during the measurement
	// window (the paper computes reaction times only on those).
	FreshSubject bool
}

// ReactionTime returns Applied − SubjectCreated.
func (l Label) ReactionTime() time.Duration { return l.Applied.Sub(l.SubjectCreated) }

// Labeler is one labeling service (§6.1).
//
//wire:v3 fields=12
type Labeler struct {
	DID      string
	Name     string
	Official bool
	Values   []string
	// Announced is when the service record appeared.
	Announced time.Time
	// Functional: endpoint reachable; Active: issued ≥1 label.
	Functional bool
	Active     bool
	// Hosting classifies the endpoint's IP (cloud/residential/unknown).
	Hosting string
	// Automated models the issuance process (fast, low-variance
	// reaction times vs. slow manual ones).
	Automated bool
	Likes     int
	Operator  string
	About     string
}

// FeedGen is one feed generator (§7).
//
//wire:v3 fields=14
type FeedGen struct {
	URI         string
	CreatorIdx  int    // index into Dataset.Users
	Platform    string // FGaaS platform name, or "self-hosted"
	DisplayName string
	Description string
	Lang        string
	CreatedAt   time.Time
	Likes       int
	// Posts curated during the measurement window.
	Posts int
	// LastPost is the newest curated post time (zero = never).
	LastPost time.Time
	// Reachable: metadata fetch succeeded (paper: 40,398 of 43,063).
	Reachable bool
	// Personalized feeds return nothing to crawler accounts.
	Personalized bool
	// LabeledShare is the fraction of curated posts carrying labels;
	// TopLabel the most frequent one (Figure 9).
	LabeledShare float64
	TopLabel     string
}

// HandleUpdate is one #handle event (§5, User Handles Updates).
//
//wire:v3 fields=3
type HandleUpdate struct {
	DID       string
	NewHandle string
	Time      time.Time
}

// Domain is one registered domain from the WHOIS scan (Table 2).
//
//wire:v3 fields=6
type Domain struct {
	Name string
	// IANAID is 0 when WHOIS omitted it (ccTLD policy).
	IANAID        int
	RegistrarName string
	CCTLD         bool
	// TrancoRank is the synthetic popularity rank (0 = not in top 1M).
	TrancoRank int
	// Subdomains counts FQDN handles under this registered domain
	// (Figure 3).
	Subdomains int
}

// Dataset is the full measurement corpus.
type Dataset struct {
	// Scale notes the 1/N downscaling factor relative to the paper.
	Scale int
	// Window is the measurement period.
	WindowStart, WindowEnd time.Time

	Users         []User
	Posts         []Post
	Daily         []DayActivity
	Firehose      EventCounts
	NonBskyEvents int64
	Labels        []Label
	Labelers      []Labeler
	FeedGens      []FeedGen
	HandleUpdates []HandleUpdate
	Domains       []Domain
}

// UserByDID finds a user index by DID (linear; datasets are generated
// sorted so callers needing speed should build their own index).
func (d *Dataset) UserByDID(did string) (int, bool) {
	for i := range d.Users {
		if d.Users[i].DID == did {
			return i, true
		}
	}
	return -1, false
}

// TotalOps sums all daily repo operations.
func (d *Dataset) TotalOps() (posts, likes, reposts, follows, blocks int64) {
	for _, day := range d.Daily {
		posts += int64(day.Posts)
		likes += int64(day.Likes)
		reposts += int64(day.Reposts)
		follows += int64(day.Follows)
		blocks += int64(day.Blocks)
	}
	return
}
