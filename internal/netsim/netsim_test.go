package netsim

import (
	"context"
	"testing"
	"time"

	"blueskies/internal/core"
	"blueskies/internal/feedgen"
	"blueskies/internal/identity"
	"blueskies/internal/lexicon"
	"blueskies/internal/pds"
	"blueskies/internal/whois"
)

// startNet boots a 2-PDS network with users, a labeler, and a feed.
func startNet(t *testing.T) (*Network, []*coreUser) {
	t.Helper()
	net, err := Start(Config{PDSCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)

	users := []*coreUser{
		{handle: "alice.bsky.social"},
		{handle: "bob.bsky.social"},
		{handle: "carol.example.com"}, // self-managed handle
	}
	for i, u := range users {
		acct, err := net.CreateUser(i, identity.Handle(u.handle))
		if err != nil {
			t.Fatal(err)
		}
		u.acct = acct
		u.pds = net.PDSes[i%len(net.PDSes)]
	}
	return net, users
}

type coreUser struct {
	handle string
	acct   *pds.Account
	pds    *pds.Server
}

func TestFullNetworkEndToEnd(t *testing.T) {
	net, users := startNet(t)
	alice, bob, carol := users[0], users[1], users[2]

	// Posts, likes, follows across both PDSes.
	uri, err := alice.pds.CreateRecord(alice.acct.DID, lexicon.Post, "3kaaaaaaaaaa2",
		lexicon.NewPost("hello decentralized world", []string{"en"}, time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.pds.CreateRecord(bob.acct.DID, lexicon.Like, "3kbbbbbbbbbb2",
		lexicon.NewLike(uri.String(), time.Now())); err != nil {
		t.Fatal(err)
	}
	if _, err := carol.pds.CreateRecord(carol.acct.DID, lexicon.Follow, "3kcccccccccc2",
		lexicon.NewFollow(string(alice.acct.DID), time.Now())); err != nil {
		t.Fatal(err)
	}

	// Labeler labels alice's post.
	svc, _, err := net.AddLabeler("labeler.bsky.social", []string{"test-label"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Apply(uri.String(), "test-label"); err != nil {
		t.Fatal(err)
	}

	// Feed generator on Skyfeed hosting a whole-network feed.
	engine, serviceDID, err := net.AddFeedHost("Skyfeed", feedgen.PlatformByName("Skyfeed"))
	if err != nil {
		t.Fatal(err)
	}
	feedURI, err := net.PublishFeed(alice.acct, engine, serviceDID, "everything",
		feedgen.Config{WholeNetwork: true}, "Everything", "all the posts")
	if err != nil {
		t.Fatal(err)
	}
	engine.Ingest(feedgen.PostView{URI: uri.String(), DID: string(alice.acct.DID),
		Text: "hello decentralized world", CreatedAt: time.Now()})

	// WHOIS registration for carol's domain.
	net.RegisterDomain("example.com", whois.Registrar{IANAID: 1068, Name: "NameCheap, Inc."}, false)

	// Wait for propagation through relay → appview. The feed
	// generator record follows the post on the same repo stream, so a
	// post count alone does not prove it has been indexed yet.
	if err := net.WaitForAppView(1, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(3 * time.Second); len(net.AppView.FeedGenerators()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("appview never indexed the feed generator record")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// --- Run the paper's pipeline over the live network. ---
	col := &core.Collector{
		RelayURL:    net.Relay.URL(),
		PLCURL:      net.PLC.URL(),
		AppViewURL:  net.AppView.URL(),
		DNSAddr:     net.DNS.Addr(),
		WhoisAddr:   net.Whois.Addr(),
		LabelerURLs: []string{svc.URL()},
	}
	ctx := context.Background()

	// Identifier dataset: all four accounts (3 users + labeler).
	ids, err := col.ListIdentifiers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("identifiers = %d, want 4", len(ids))
	}

	// DID document dataset.
	doc, err := col.FetchDIDDocument(carol.acct.DID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Handle() != "carol.example.com" {
		t.Fatalf("carol's handle = %s", doc.Handle())
	}

	// Repository dataset via relay-mirrored CAR.
	r, err := col.FetchRepo(ctx, alice.acct.DID)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := r.Get(lexicon.Post, "3kaaaaaaaaaa2"); err != nil ||
		lexicon.PostText(rec.Value) != "hello decentralized world" {
		t.Fatalf("repo fetch: %v %v", rec, err)
	}

	// Labeling services dataset: full-history stream.
	labels, err := col.CollectLabels(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 || labels[0].Val != "test-label" {
		t.Fatalf("labels = %+v", labels)
	}

	// Feed generator dataset.
	view, err := col.CrawlFeedGenerator(ctx, feedURI)
	if err != nil {
		t.Fatal(err)
	}
	if !view.IsOnline || !view.IsValid {
		t.Fatalf("feed view = %+v", view)
	}
	if len(view.PostURIs) != 1 || view.PostURIs[0] != uri.String() {
		t.Fatalf("feed posts = %v", view.PostURIs)
	}

	// Active handle verification (DNS TXT).
	proof, err := col.VerifyHandle("carol.example.com", carol.acct.DID, "")
	if err != nil {
		t.Fatal(err)
	}
	if proof != core.ProofDNSTXT {
		t.Fatalf("proof = %s", proof)
	}

	// WHOIS scan.
	recs, err := col.ScanWHOIS([]string{"example.com"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].IANAID != 1068 {
		t.Fatalf("whois = %+v", recs)
	}

	// Full snapshot.
	ds, err := col.Snapshot(ctx, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Users) != 4 || len(ds.Posts) != 1 || len(ds.Labels) != 1 {
		t.Fatalf("snapshot: users=%d posts=%d labels=%d",
			len(ds.Users), len(ds.Posts), len(ds.Labels))
	}
}

func TestFirehoseEventCounting(t *testing.T) {
	net, users := startNet(t)
	alice := users[0]
	col := &core.Collector{RelayURL: net.Relay.URL()}

	done := make(chan core.EventCounts, 1)
	go func() {
		// 3 identity events (backfill) + 1 commit + 1 handle.
		counts, _ := col.CollectFirehose(5, 3*time.Second)
		done <- counts
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := alice.pds.CreateRecord(alice.acct.DID, lexicon.Post, "3kddddddddddd",
		lexicon.NewPost("counted", nil, time.Now())); err != nil {
		t.Fatal(err)
	}
	if err := alice.pds.UpdateHandle(alice.acct.DID, "alice2.bsky.social"); err != nil {
		t.Fatal(err)
	}
	counts := <-done
	if counts.Commits < 1 || counts.Identity < 3 || counts.Handle < 1 {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestHandleMigrationAcrossPDSes(t *testing.T) {
	net, users := startNet(t)
	alice := users[0]
	if _, err := alice.pds.CreateRecord(alice.acct.DID, lexicon.Post, "3kmmmmmmmmmmm",
		lexicon.NewPost("pre-move", nil, time.Now())); err != nil {
		t.Fatal(err)
	}
	carBytes, err := alice.pds.ExportCAR(alice.acct.DID)
	if err != nil {
		t.Fatal(err)
	}
	dst := net.PDSes[1]
	moved, err := dst.ImportAccount(alice.acct.DID, alice.acct.Handle, alice.acct.Key, carBytes)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := moved.Repo.Get(lexicon.Post, "3kmmmmmmmmmmm")
	if err != nil || lexicon.PostText(rec.Value) != "pre-move" {
		t.Fatalf("migration lost data: %v %v", rec, err)
	}
}
