package core

import (
	"syriafilter/internal/bittorrent"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
)

// bittorrentMetric accumulates tracker-announce traffic (§7.3): distinct
// peers, contents, and per-tracker announce counts.
type bittorrentMetric struct {
	cx *recordCtx

	total, censored uint64
	peers           map[[20]byte]struct{}
	hashes          map[[20]byte]struct{}
	trackers        *stats.Counter
	declared
}

func newBitTorrentMetric(e *Engine) *bittorrentMetric {
	m := &bittorrentMetric{cx: &e.cx}
	m.declare("bittorrent",
		scalarField{&m.total}, scalarField{&m.censored},
		digestSetField{&m.peers}, digestSetField{&m.hashes},
		counterField{&m.trackers},
	)
	return m
}

func (m *bittorrentMetric) Observe(rec *logfmt.Record) {
	if !bittorrent.IsAnnouncePath(rec.Path) {
		return
	}
	ann, err := bittorrent.ParseAnnounce(rec.Path, rec.Query)
	if err != nil {
		return
	}
	m.total++
	m.peers[ann.PeerID] = struct{}{}
	m.hashes[ann.InfoHash] = struct{}{}
	m.trackers.Add(rec.Host)
	if m.cx.censored {
		m.censored++
	}
}
