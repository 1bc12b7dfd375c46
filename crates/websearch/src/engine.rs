//! The simulated general web search engine ("Bing" in the paper).
//!
//! Four verticals (web / image / video / news) over the synthetic
//! corpus, each a `symphony-text` index blended with static rank.
//! The customization hooks Symphony exposes to designers — site
//! restriction, query augmentation, preferred-site boosts, result
//! count — are all per-request [`SearchConfig`] options, mirroring the
//! Google-Custom-Search-style knobs described in the paper's
//! introduction.

use crate::corpus::{Corpus, Page, PageKind};
use crate::logs::LogEntry;
use crate::pagerank::static_rank;
use std::collections::HashMap;
use std::sync::Arc;
use symphony_text::query::{Clause, ClauseKind, Occur};
use symphony_text::snippet::SnippetGenerator;
use symphony_text::spell::SpellSuggester;
use symphony_text::{
    Analyzer, Doc, DocId, FieldId, GlobalScoreStats, Index, IndexConfig, MaintenanceReport, Query,
    Searcher, SegmentPolicy,
};

/// Search verticals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vertical {
    /// Web pages (articles + reviews).
    Web,
    /// Image objects.
    Image,
    /// Video objects.
    Video,
    /// Dated news articles.
    News,
}

impl Vertical {
    /// The vertical a page belongs to, by its object kind.
    pub fn of_kind(kind: &PageKind) -> Vertical {
        match kind {
            PageKind::Article | PageKind::Review { .. } => Vertical::Web,
            PageKind::Image { .. } => Vertical::Image,
            PageKind::Video { .. } => Vertical::Video,
            PageKind::News { .. } => Vertical::News,
        }
    }

    /// All verticals.
    pub const ALL: [Vertical; 4] = [
        Vertical::Web,
        Vertical::Image,
        Vertical::Video,
        Vertical::News,
    ];

    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Vertical::Web => "web",
            Vertical::Image => "image",
            Vertical::Video => "video",
            Vertical::News => "news",
        }
    }
}

/// Per-request customization (paper: "Most services support additional
/// configuration, such as site restriction").
#[derive(Debug, Clone, Default)]
pub struct SearchConfig {
    /// Only results from these domains (empty = unrestricted). A
    /// domain matches itself and its subdomains.
    pub site_restrict: Vec<String>,
    /// Terms appended to every query (custom-search-style query
    /// augmentation).
    pub augment_terms: Vec<String>,
    /// Domains whose results get a preference boost (custom-search
    /// style reordering).
    pub prefer_sites: Vec<String>,
}

impl SearchConfig {
    /// Restrict to the given domains.
    pub fn restrict_to<I, S>(mut self, domains: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.site_restrict = domains.into_iter().map(Into::into).collect();
        self
    }

    /// Append augmentation terms.
    pub fn augment<I, S>(mut self, terms: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.augment_terms = terms.into_iter().map(Into::into).collect();
        self
    }

    /// Prefer the given domains.
    pub fn prefer<I, S>(mut self, domains: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.prefer_sites = domains.into_iter().map(Into::into).collect();
        self
    }
}

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct WebResult {
    /// Result URL.
    pub url: String,
    /// Title.
    pub title: String,
    /// Highlighted snippet.
    pub snippet: String,
    /// Site domain.
    pub domain: String,
    /// Final blended score.
    pub score: f32,
    /// Image source URL (image vertical only).
    pub image_src: Option<String>,
    /// Video duration (video vertical only).
    pub duration_s: Option<u32>,
    /// Publication date, epoch seconds (news vertical only).
    pub date: Option<i64>,
}

/// One candidate in a shard's scatter-gather pool: the blended result
/// (its snippet still empty) plus the two keys that drive the
/// rank-safe merge — the raw BM25 relevance score (comparable across
/// shards once corpus-wide statistics are folded) and the global page
/// index (the canonical tie-break, equal to single-index doc order
/// under strided partitioning).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEntry {
    /// Global corpus page index.
    pub page: usize,
    /// Raw BM25 score from the vertical index, before blending.
    pub raw: f32,
    /// The blended result. Its snippet stays empty until
    /// [`SearchEngine::merge_pools`] builds it for the entries that
    /// reach the page.
    pub result: WebResult,
}

/// One shard's candidate pool for a query, ordered (raw desc, page
/// asc), plus the shard searcher's final MaxScore threshold: every
/// document the shard did *not* return scores at or below `bound`,
/// which the gather side uses as a merge bound to certify that
/// truncating the merged pool is rank-safe.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPool {
    /// Pool entries, best first.
    pub entries: Vec<PoolEntry>,
    /// MaxScore threshold exported by the shard's searcher
    /// (`NEG_INFINITY` when the pool came back short — the shard is
    /// exhausted and withholds nothing).
    pub bound: f32,
    /// How to build the snippets of the entries that survive the
    /// merge. Set by [`SearchEngine::search_pool`]; a pool decoded
    /// from the wire has none until the gather side attaches one.
    pub snippets: Option<SnippetSource>,
}

impl Default for ShardPool {
    fn default() -> Self {
        ShardPool {
            entries: Vec::new(),
            bound: f32::NEG_INFINITY,
            snippets: None,
        }
    }
}

/// Everything needed to build a result snippet after the merge: the
/// page table, the vertical index's analyzer, and the query's positive
/// words (augmentation terms included). Cloning bumps three reference
/// counts.
#[derive(Clone)]
pub struct SnippetSource {
    corpus: Arc<Corpus>,
    analyzer: Arc<dyn Analyzer>,
    words: Arc<[String]>,
}

impl SnippetSource {
    /// Fill in the snippet of every entry from its page body.
    fn fill(&self, entries: &mut [PoolEntry]) {
        let generator = SnippetGenerator::new(&*self.analyzer, &self.words);
        for e in entries {
            e.result.snippet = generator.snippet(&self.corpus.pages[e.page].body);
        }
    }
}

impl std::fmt::Debug for SnippetSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnippetSource")
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

impl PartialEq for SnippetSource {
    /// Same page table and analyzer instances, same words.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.corpus, &other.corpus)
            && std::ptr::addr_eq(Arc::as_ptr(&self.analyzer), Arc::as_ptr(&other.analyzer))
            && self.words == other.words
    }
}

struct VerticalIndex {
    index: Index,
    /// Doc id -> page index.
    pages: Vec<usize>,
    /// Page index -> live doc id (reverse of `pages`, minus tombstones).
    doc_by_page: HashMap<usize, DocId>,
}

impl VerticalIndex {
    /// Index a page incrementally; a page already present (re-crawl)
    /// is refreshed via [`Index::update`] — tombstone plus re-add — so
    /// the vertical never rebuilds.
    fn add_page(&mut self, page_idx: usize, doc: Doc) {
        let id = match self.doc_by_page.get(&page_idx) {
            Some(&old) => self
                .index
                .update(old, doc)
                .expect("doc_by_page only maps live doc ids"),
            None => self.index.add(doc),
        };
        debug_assert_eq!(id.as_usize(), self.pages.len());
        self.pages.push(page_idx);
        self.doc_by_page.insert(page_idx, id);
    }

    /// Tombstone a page's document (no-op when absent).
    fn remove_page(&mut self, page_idx: usize) -> bool {
        match self.doc_by_page.remove(&page_idx) {
            Some(doc) => self.index.delete(doc),
            None => false,
        }
    }
}

/// The search engine over one corpus.
pub struct SearchEngine {
    /// The page table, shared by every shard of a cluster and by the
    /// snippet sources of in-flight pools; ingest copies on write.
    corpus: Arc<Corpus>,
    rank: Vec<f64>,
    web: VerticalIndex,
    image: VerticalIndex,
    video: VerticalIndex,
    news: VerticalIndex,
    /// Query-conditioned score multipliers learned from community
    /// click logs (paper §IV: application usage data "may eventually
    /// provide topic- or community-specific relevance signals to the
    /// general search engine"). Keyed by normalized query, then URL, so
    /// a URL popular for one query never distorts another — and so one
    /// query's boosts can be looked up per hit by borrowed URL without
    /// building an owned `(query, url)` key.
    click_boosts: HashMap<String, HashMap<String, f32>>,
    speller: SpellSuggester,
    /// Corpus-wide scoring statistics, one per vertical, set when this
    /// engine is a document-partitioned shard of a larger corpus (see
    /// [`SearchEngine::build_cluster`]). Shard searches then score
    /// with union df / live-doc / average-length values and stay
    /// bit-identical to a single-index build.
    global: Option<Arc<[GlobalScoreStats; 4]>>,
}

impl std::fmt::Debug for SearchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchEngine")
            .field("pages", &self.corpus.pages.len())
            .field("web_docs", &self.web.pages.len())
            .finish_non_exhaustive()
    }
}

/// Field ids shared by every vertical index; `build_vertical` registers
/// title first and body second, so the ids are fixed and the routing
/// pass can construct documents before any index exists.
const TITLE_FIELD: FieldId = FieldId(0);
const BODY_FIELD: FieldId = FieldId(1);

/// One vertical's slice of the corpus: the documents to index plus the
/// doc-id -> page-index mapping, produced by [`route_pages`].
#[derive(Default)]
struct VerticalDocs {
    docs: Vec<Doc>,
    pages: Vec<usize>,
}

/// Single pass over the corpus routing each page to its vertical
/// (replacing four full-corpus filter passes).
fn route_pages(corpus: &Corpus) -> [VerticalDocs; 4] {
    let mut routed: [VerticalDocs; 4] = Default::default();
    for (i, page) in corpus.pages.iter().enumerate() {
        let v = Vertical::of_kind(&page.kind) as usize;
        routed[v].docs.push(page_doc(page));
        routed[v].pages.push(i);
    }
    routed
}

/// Project a page into an index document (shared by bulk build and
/// live ingest, so both paths index identically).
fn page_doc(page: &Page) -> Doc {
    Doc::new()
        .field(TITLE_FIELD, &*page.title)
        .field(BODY_FIELD, &*page.body)
}

fn build_vertical(docs: VerticalDocs, threads: usize) -> VerticalIndex {
    let mut index = Index::new(IndexConfig::default());
    let title = index.register_field("title", 2.0);
    let body = index.register_field("body", 1.0);
    debug_assert_eq!((title, body), (TITLE_FIELD, BODY_FIELD));
    let ids = index.build_parallel(docs.docs, threads);
    index.optimize();
    let doc_by_page = docs
        .pages
        .iter()
        .zip(ids)
        .map(|(&page, id)| (page, id))
        .collect();
    VerticalIndex {
        index,
        pages: docs.pages,
        doc_by_page,
    }
}

impl SearchEngine {
    /// Index a corpus (builds all four verticals and the static rank),
    /// using up to [`symphony_text::default_build_threads`] workers.
    pub fn new(corpus: Corpus) -> SearchEngine {
        Self::with_build_threads(corpus, symphony_text::default_build_threads())
    }

    /// Index a corpus with an explicit build-parallelism budget.
    ///
    /// With `threads <= 1` everything runs sequentially on the calling
    /// thread (the cold-start baseline). Otherwise the four verticals
    /// build concurrently on scoped threads — each splitting its
    /// documents across segment builders — while the static-rank power
    /// iteration runs on the calling thread and the spell suggester is
    /// derived as soon as the web vertical lands. The resulting indexes
    /// are bit-identical to a sequential build (see
    /// `Index::build_parallel`).
    pub fn with_build_threads(corpus: Corpus, threads: usize) -> SearchEngine {
        let [web_d, image_d, video_d, news_d] = route_pages(&corpus);
        let (rank, web, image, video, news, speller) = if threads <= 1 {
            let rank = static_rank(&corpus, 30);
            let web = build_vertical(web_d, 1);
            let image = build_vertical(image_d, 1);
            let video = build_vertical(video_d, 1);
            let news = build_vertical(news_d, 1);
            let speller = SpellSuggester::from_index(&web.index);
            (rank, web, image, video, news, speller)
        } else {
            // Two layers of parallelism: one scoped thread per vertical,
            // each splitting its docs across `inner` segment builders.
            let inner = (threads / 2).max(1);
            std::thread::scope(|s| {
                let web_h = s.spawn(move || build_vertical(web_d, inner));
                let image_h = s.spawn(move || build_vertical(image_d, inner));
                let video_h = s.spawn(move || build_vertical(video_d, inner));
                let news_h = s.spawn(move || build_vertical(news_d, inner));
                // Static rank overlaps with the vertical builds.
                let rank = static_rank(&corpus, 30);
                let web = web_h.join().expect("web vertical build panicked");
                // The speller only needs the web lexicon; build it while
                // the remaining verticals finish.
                let speller = SpellSuggester::from_index(&web.index);
                let image = image_h.join().expect("image vertical build panicked");
                let video = video_h.join().expect("video vertical build panicked");
                let news = news_h.join().expect("news vertical build panicked");
                (rank, web, image, video, news, speller)
            })
        };
        SearchEngine {
            corpus: Arc::new(corpus),
            rank,
            web,
            image,
            video,
            news,
            click_boosts: HashMap::new(),
            speller,
            global: None,
        }
    }

    /// Build `num_shards` document-partitioned engines over one
    /// corpus: shard `s` indexes the pages with `page_idx % num_shards
    /// == s` (strided, so every shard's vertical doc order follows the
    /// global page order), while every shard keeps the full page table
    /// and the full static rank. After the per-shard builds, scoring
    /// statistics are folded across shards per vertical and attached
    /// to each engine, so shard-local searches score exactly as one
    /// index over the whole corpus would — the foundation of the
    /// rank-safe scatter-gather merge ([`SearchEngine::merge_pools`]).
    /// The shards share one copy of the page table.
    pub fn build_cluster(corpus: &Corpus, num_shards: usize, threads: usize) -> Vec<SearchEngine> {
        assert!(num_shards > 0, "cluster needs at least one shard");
        let rank = static_rank(corpus, 30);
        let shared = Arc::new(corpus.clone());
        let mut shards: Vec<SearchEngine> = (0..num_shards)
            .map(|s| {
                let mut routed = route_pages(corpus);
                for vd in routed.iter_mut() {
                    let docs = std::mem::take(&mut vd.docs);
                    let pages = std::mem::take(&mut vd.pages);
                    (vd.docs, vd.pages) = docs
                        .into_iter()
                        .zip(pages)
                        .filter(|&(_, p)| p % num_shards == s)
                        .unzip();
                }
                let [web_d, image_d, video_d, news_d] = routed;
                let web = build_vertical(web_d, threads);
                let image = build_vertical(image_d, threads);
                let video = build_vertical(video_d, threads);
                let news = build_vertical(news_d, threads);
                let speller = SpellSuggester::from_index(&web.index);
                SearchEngine {
                    corpus: Arc::clone(&shared),
                    rank: rank.clone(),
                    web,
                    image,
                    video,
                    news,
                    click_boosts: HashMap::new(),
                    speller,
                    global: None,
                }
            })
            .collect();
        let global = Arc::new([
            GlobalScoreStats::fold(shards.iter().map(|e| &e.web.index)),
            GlobalScoreStats::fold(shards.iter().map(|e| &e.image.index)),
            GlobalScoreStats::fold(shards.iter().map(|e| &e.video.index)),
            GlobalScoreStats::fold(shards.iter().map(|e| &e.news.index)),
        ]);
        for e in &mut shards {
            e.global = Some(Arc::clone(&global));
        }
        shards
    }

    /// "Did you mean": a corrected query when tokens look misspelled
    /// relative to the web vertical's lexicon, else `None`.
    pub fn did_you_mean(&self, raw_query: &str) -> Option<String> {
        self.speller
            .did_you_mean(raw_query, self.web.index.analyzer())
    }

    /// Learn query-conditioned relevance boosts from community click
    /// logs (the paper's §IV feedback loop). Within each normalized
    /// query, a URL clicked `c` times gets a multiplier
    /// `1 + strength * ln(1 + c) / ln(1 + max_c)`, so that query's
    /// most-clicked URL gains exactly `1 + strength` and others scale
    /// logarithmically below it. Calling this again replaces the
    /// previous signal.
    pub fn apply_click_feedback(&mut self, logs: &[LogEntry], strength: f32) {
        self.click_boosts.clear();
        if strength <= 0.0 {
            return;
        }
        // (query, url) -> clicks, plus per-query maxima.
        let mut counts: HashMap<(String, String), u32> = HashMap::new();
        for l in logs {
            *counts
                .entry((normalize_query(&l.query), l.url.clone()))
                .or_insert(0) += 1;
        }
        let mut max_per_query: HashMap<String, u32> = HashMap::new();
        for ((q, _), c) in &counts {
            let m = max_per_query.entry(q.clone()).or_insert(0);
            *m = (*m).max(*c);
        }
        for ((q, url), c) in counts {
            let max = max_per_query[&q];
            let denom = (1.0 + max as f32).ln();
            let boost = 1.0 + strength * (1.0 + c as f32).ln() / denom;
            self.click_boosts.entry(q).or_default().insert(url, boost);
        }
    }

    /// Number of `(query, url)` pairs carrying a click-feedback boost.
    pub fn click_boosted_urls(&self) -> usize {
        self.click_boosts.values().map(|urls| urls.len()).sum()
    }

    /// The corpus behind the engine.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn vertical(&self, v: Vertical) -> &VerticalIndex {
        match v {
            Vertical::Web => &self.web,
            Vertical::Image => &self.image,
            Vertical::Video => &self.video,
            Vertical::News => &self.news,
        }
    }

    /// The analyzer a vertical's index applies to pages and queries.
    pub fn analyzer(&self, v: Vertical) -> &dyn Analyzer {
        self.vertical(v).index.analyzer()
    }

    fn vertical_mut(&mut self, v: Vertical) -> &mut VerticalIndex {
        match v {
            Vertical::Web => &mut self.web,
            Vertical::Image => &mut self.image,
            Vertical::Video => &mut self.video,
            Vertical::News => &mut self.news,
        }
    }

    /// Ingest a crawled page without rebuilding any vertical: a new URL
    /// is appended to the corpus and indexed into its vertical's
    /// memtable; a known URL is replaced in place (tombstone + re-add,
    /// switching verticals when its object kind changed). Returns the
    /// vertical that now serves the page.
    ///
    /// New pages receive the corpus-mean static rank as a provisional
    /// score until [`recompute_static_rank`](Self::recompute_static_rank)
    /// folds them into the link graph.
    pub fn ingest_page(&mut self, page: Page) -> Vertical {
        let vertical = Vertical::of_kind(&page.kind);
        let corpus = Arc::make_mut(&mut self.corpus);
        match corpus.page_index_by_url(&page.url) {
            Some(idx) => {
                let old = Vertical::of_kind(&corpus.pages[idx].kind);
                let doc = page_doc(&page);
                corpus.pages[idx] = page;
                if old != vertical {
                    self.vertical_mut(old).remove_page(idx);
                }
                self.vertical_mut(vertical).add_page(idx, doc);
            }
            None => {
                let idx = corpus.push_page(page);
                let mean = match self.rank.len() {
                    0 => 0.0,
                    n => self.rank.iter().sum::<f64>() / n as f64,
                };
                self.rank.push(mean);
                let doc = page_doc(&self.corpus.pages[idx]);
                self.vertical_mut(vertical).add_page(idx, doc);
            }
        }
        vertical
    }

    /// Drop a URL from search (tombstone; the posting data is purged by
    /// a later merge). Returns `false` for unknown or already-removed
    /// URLs. The corpus keeps the page record so existing page indexes
    /// stay stable.
    pub fn remove_page(&mut self, url: &str) -> bool {
        let Some(idx) = self.corpus.page_index_by_url(url) else {
            return false;
        };
        let v = Vertical::of_kind(&self.corpus.pages[idx].kind);
        self.vertical_mut(v).remove_page(idx)
    }

    /// One maintenance tick over all four verticals: each seals its
    /// memtable when over the policy's size cap or staleness window and
    /// runs at most one background merge. When the web vertical did
    /// anything, the spell suggester is re-snapshotted so corrections
    /// track the live lexicon (freshly sealed terms become suggestible,
    /// purged terms stop suggesting). Deterministic for a fixed
    /// schedule of calls; hosting drives it on the virtual clock.
    pub fn maintain(&mut self, now_ms: u64) -> MaintenanceReport {
        let mut total = MaintenanceReport::default();
        for v in Vertical::ALL {
            let r = self.vertical_mut(v).index.maintain(now_ms);
            total.sealed |= r.sealed;
            total.merged_segments += r.merged_segments;
            total.purged_docs += r.purged_docs;
            if v == Vertical::Web && r.did_work() {
                self.speller = SpellSuggester::from_index(&self.web.index);
            }
        }
        total
    }

    /// Apply a segment-lifecycle policy to every vertical index.
    pub fn set_segment_policy(&mut self, policy: SegmentPolicy) {
        for v in Vertical::ALL {
            self.vertical_mut(v).index.set_policy(policy);
        }
    }

    /// Re-run the static-rank power iteration over the current corpus,
    /// replacing the provisional ranks that live-ingested pages carry.
    pub fn recompute_static_rank(&mut self) {
        self.rank = static_rank(&self.corpus, 30);
    }

    /// Search a vertical. `raw_query` uses the
    /// [`symphony_text::Query`] syntax; `config` applies the
    /// customization hooks; at most `k` results return, best first.
    ///
    /// Implemented as the one-shard special case of the scatter-gather
    /// pipeline: one candidate pool, merged, ranked and snippeted by
    /// [`SearchEngine::merge_pools`].
    pub fn search(
        &self,
        vertical: Vertical,
        raw_query: &str,
        config: &SearchConfig,
        k: usize,
    ) -> Vec<WebResult> {
        Self::merge_pools(vec![self.search_pool(vertical, raw_query, config, k)], k)
    }

    /// Depth of the relevance candidate pool for a final page of `k`
    /// results. Over-fetch: static-rank blending can reorder beyond
    /// position k, so rescoring pulls a deeper pool.
    fn pool_depth(k: usize) -> usize {
        (k * 4).max(32)
    }

    /// The query a search runs: `raw_query` parsed, plus each
    /// augmentation term as an optional clause.
    fn full_query(raw_query: &str, config: &SearchConfig) -> Query {
        let mut query = Query::parse(raw_query);
        for t in &config.augment_terms {
            query.clauses.push(Clause {
                occur: Occur::Should,
                kind: ClauseKind::Term(t.clone()),
                field: None,
            });
        }
        query
    }

    fn source_for(&self, vertical: Vertical, query: &Query) -> SnippetSource {
        SnippetSource {
            corpus: Arc::clone(&self.corpus),
            analyzer: self.vertical(vertical).index.shared_analyzer(),
            words: query
                .positive_words()
                .into_iter()
                .map(String::from)
                .collect(),
        }
    }

    /// The snippet source [`search_pool`](Self::search_pool) attaches
    /// to its pool for this request. The gather side of a cluster
    /// calls it to snippet pools that arrive over the wire.
    pub fn snippet_source(
        &self,
        vertical: Vertical,
        raw_query: &str,
        config: &SearchConfig,
    ) -> SnippetSource {
        self.source_for(vertical, &Self::full_query(raw_query, config))
    }

    /// Produce this engine's candidate pool for one query: the top
    /// [`pool_depth`](Self::pool_depth) relevance hits, rescored with
    /// static rank / click / preference / recency blending, each
    /// carrying its raw BM25 score and global page index, plus the
    /// relevance searcher's MaxScore threshold as the shard's merge
    /// bound. On a shard built by [`SearchEngine::build_cluster`] the
    /// raw scores are computed under folded corpus-wide statistics, so
    /// pools from different shards are directly comparable — merging
    /// them reproduces the single-index pool exactly.
    ///
    /// Entries carry no snippet: the pool instead carries a
    /// [`SnippetSource`], and the merge builds snippets only for the
    /// results that reach the page.
    pub fn search_pool(
        &self,
        vertical: Vertical,
        raw_query: &str,
        config: &SearchConfig,
        k: usize,
    ) -> ShardPool {
        let query = Self::full_query(raw_query, config);
        if query.is_empty() || k == 0 {
            return ShardPool::default();
        }
        let vi = self.vertical(vertical);
        let pool = Self::pool_depth(k);
        let restrict = &config.site_restrict;
        let mut searcher = Searcher::new(&vi.index);
        if let Some(global) = &self.global {
            searcher = searcher.with_global_stats(&global[vertical as usize]);
        }
        let (hits, bound) = searcher.search_filtered_with_threshold(&query, pool, |doc| {
            if restrict.is_empty() {
                return true;
            }
            let domain = self.corpus.domain(vi.pages[doc.as_usize()]);
            restrict.iter().any(|allow| domain_matches(domain, allow))
        });

        let newest = NEWS_SPAN_HINT;
        // Resolve this query's boost table once; per-hit lookups then
        // borrow the URL instead of building an owned key.
        let per_query_boosts = if self.click_boosts.is_empty() {
            None
        } else {
            self.click_boosts.get(&normalize_query(raw_query))
        };
        let entries: Vec<PoolEntry> = hits
            .into_iter()
            .map(|h| {
                let page_idx = vi.pages[h.doc.as_usize()];
                let page = &self.corpus.pages[page_idx];
                let domain = self.corpus.domain(page_idx).to_string();
                let mut score = h.score * (0.4 + 1.6 * self.rank[page_idx] as f32);
                if let Some(boosts) = per_query_boosts {
                    if let Some(boost) = boosts.get(page.url.as_str()) {
                        score *= boost;
                    }
                }
                if config
                    .prefer_sites
                    .iter()
                    .any(|p| domain_matches(&domain, p))
                {
                    score *= PREFER_BOOST;
                }
                let (image_src, duration_s, date) = match &page.kind {
                    PageKind::Image { src, .. } => (Some(src.clone()), None, None),
                    PageKind::Video { duration_s } => (None, Some(*duration_s), None),
                    PageKind::News { date } => {
                        // Recency boost for news.
                        let rec = (*date as f32 / newest).clamp(0.0, 1.0);
                        score *= 0.8 + 0.4 * rec;
                        (None, None, Some(*date))
                    }
                    _ => (None, None, None),
                };
                PoolEntry {
                    page: page_idx,
                    raw: h.score,
                    result: WebResult {
                        url: page.url.clone(),
                        title: page.title.clone(),
                        snippet: String::new(),
                        domain,
                        score,
                        image_src,
                        duration_s,
                        date,
                    },
                }
            })
            .collect();
        // The searcher returns (score desc, doc asc); strided
        // partitioning keeps local doc order aligned with global page
        // order, so entries are already in (raw desc, page asc) — the
        // canonical merge order.
        debug_assert!(entries
            .windows(2)
            .all(|w| w[1].raw < w[0].raw || (w[1].raw == w[0].raw && w[0].page < w[1].page)));
        ShardPool {
            entries,
            bound,
            snippets: Some(self.source_for(vertical, &query)),
        }
    }

    /// Rank-safe gather: merge per-shard candidate pools into the
    /// final top-`k` result page.
    ///
    /// Exactness argument (DESIGN.md "Distributed serving" has the
    /// full sketch): the shards partition the documents, and every
    /// member of the single-index pool ranks at least as high within
    /// its own shard as globally, so the union of per-shard pools is a
    /// superset of the single-index pool; truncating the union under
    /// the same canonical total order (raw BM25 desc, global page asc
    /// — page order *is* doc order under strided partitioning)
    /// therefore selects exactly the single-index pool, and rescoring
    /// is a pure per-(page, query) function, so the final (score desc,
    /// url asc) page is bit-identical. Each shard's exported MaxScore
    /// bound certifies the truncation: any document a shard withheld
    /// scores at or below its bound, and a debug assertion checks no
    /// withheld document could have displaced the merged cutoff.
    ///
    /// Snippets are built last, for the at most `k` results on the
    /// page, from the first pool's [`SnippetSource`] (every pool of one
    /// request carries an equivalent source).
    pub fn merge_pools(pools: Vec<ShardPool>, k: usize) -> Vec<WebResult> {
        let depth = Self::pool_depth(k);
        let mut merged: Vec<PoolEntry> =
            Vec::with_capacity(pools.iter().map(|p| p.entries.len()).sum());
        let mut bounds: Vec<(f32, usize)> = Vec::with_capacity(pools.len());
        let mut source = None;
        for pool in pools {
            source = source.or(pool.snippets);
            // A shard whose pool came back full may be withholding
            // docs scoring up to its bound; remember it for the
            // rank-safety certificate below.
            if pool.entries.len() >= depth {
                bounds.push((pool.bound, pool.entries.len()));
            }
            merged.extend(pool.entries);
        }
        merged.sort_by(|a, b| b.raw.total_cmp(&a.raw).then(a.page.cmp(&b.page)));
        merged.truncate(depth);
        if let Some(cutoff) = merged.last() {
            // Merge-bound certificate: every truncated shard's bound
            // must sit at or below the merged cutoff, i.e. nothing a
            // shard withheld could have entered the merged pool.
            debug_assert!(
                merged.len() < depth || bounds.iter().all(|&(b, _)| b <= cutoff.raw),
                "shard bound exceeds merged cutoff: rank safety violated"
            );
        }
        merged.sort_by(|a, b| {
            let (a, b) = (&a.result, &b.result);
            b.score.total_cmp(&a.score).then_with(|| a.url.cmp(&b.url))
        });
        merged.truncate(k);
        debug_assert!(
            merged.is_empty() || source.is_some(),
            "a result page was merged without a snippet source"
        );
        if let Some(source) = &source {
            source.fill(&mut merged);
        }
        merged.into_iter().map(|e| e.result).collect()
    }

    /// Number of live (searchable) documents in a vertical.
    pub fn doc_count(&self, vertical: Vertical) -> usize {
        self.vertical(vertical).index.live_docs()
    }

    /// Static rank of a URL, when known (exposed for experiments).
    pub fn static_rank_of(&self, url: &str) -> Option<f64> {
        let idx = self.corpus.page_index_by_url(url)?;
        Some(self.rank[idx])
    }
}

/// Rough upper bound on synthetic news timestamps, for recency
/// normalization (2010-01-01).
const NEWS_SPAN_HINT: f32 = 1_262_304_000.0;

/// Preferred-site score multiplier.
const PREFER_BOOST: f32 = 1.5;

/// Whitespace/case normalization for click-feedback keys.
fn normalize_query(q: &str) -> String {
    q.split_whitespace()
        .map(|w| w.to_lowercase())
        .collect::<Vec<_>>()
        .join(" ")
}

/// `domain` equals `allow` or is a subdomain of it.
pub fn domain_matches(domain: &str, allow: &str) -> bool {
    domain == allow || domain.ends_with(&format!(".{allow}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::topic::Topic;

    fn engine() -> SearchEngine {
        let cfg = CorpusConfig {
            sites_per_topic: 3,
            pages_per_site: 6,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]);
        SearchEngine::new(Corpus::generate(&cfg))
    }

    #[test]
    fn web_search_finds_reviews() {
        let e = engine();
        let rs = e.search(
            Vertical::Web,
            "Galactic Raiders review",
            &SearchConfig::default(),
            10,
        );
        assert!(!rs.is_empty());
        assert!(
            rs[0].title.contains("Galactic Raiders"),
            "{:?}",
            rs[0].title
        );
        assert!(rs[0].snippet.contains("<b>"));
    }

    #[test]
    fn site_restriction_filters_domains() {
        let e = engine();
        let cfg = SearchConfig::default().restrict_to(["gamespot.com", "ign.com"]);
        let rs = e.search(Vertical::Web, "Galactic Raiders", &cfg, 10);
        assert!(!rs.is_empty());
        assert!(rs
            .iter()
            .all(|r| r.domain == "gamespot.com" || r.domain == "ign.com"));
    }

    #[test]
    fn restriction_to_unknown_domain_is_empty() {
        let e = engine();
        let cfg = SearchConfig::default().restrict_to(["nosuchsite.example"]);
        assert!(e.search(Vertical::Web, "game", &cfg, 10).is_empty());
    }

    #[test]
    fn image_vertical_returns_media_meta() {
        let e = engine();
        let rs = e.search(
            Vertical::Image,
            "Galactic Raiders",
            &SearchConfig::default(),
            5,
        );
        assert!(!rs.is_empty());
        assert!(rs[0].image_src.as_deref().unwrap().ends_with(".jpg"));
        assert!(rs[0].duration_s.is_none());
    }

    #[test]
    fn video_vertical_returns_duration() {
        let e = engine();
        let rs = e.search(
            Vertical::Video,
            "Galactic Raiders trailer",
            &SearchConfig::default(),
            5,
        );
        assert!(!rs.is_empty());
        assert!(rs[0].duration_s.is_some());
    }

    #[test]
    fn news_vertical_returns_dates() {
        let e = engine();
        let rs = e.search(
            Vertical::News,
            "Galactic Raiders",
            &SearchConfig::default(),
            5,
        );
        assert!(!rs.is_empty());
        assert!(rs[0].date.is_some());
    }

    #[test]
    fn prefer_sites_boosts_ranking() {
        let e = engine();
        let neutral = e.search(Vertical::Web, "game review", &SearchConfig::default(), 20);
        let preferred_domain = "teamxbox.com";
        let boosted = e.search(
            Vertical::Web,
            "game review",
            &SearchConfig::default().prefer([preferred_domain]),
            20,
        );
        let pos = |rs: &[WebResult]| rs.iter().position(|r| r.domain == preferred_domain);
        if let (Some(a), Some(b)) = (pos(&neutral), pos(&boosted)) {
            assert!(b <= a, "boost must not demote ({a} -> {b})");
        }
    }

    #[test]
    fn augmentation_changes_results() {
        let e = engine();
        let plain = e.search(Vertical::Web, "review", &SearchConfig::default(), 10);
        let aug = e.search(
            Vertical::Web,
            "review",
            &SearchConfig::default().augment(["gameplay"]),
            10,
        );
        assert!(!plain.is_empty() && !aug.is_empty());
        let urls = |rs: &[WebResult]| rs.iter().map(|r| r.url.clone()).collect::<Vec<_>>();
        assert_ne!(urls(&plain), urls(&aug));
    }

    #[test]
    fn empty_query_is_empty() {
        let e = engine();
        assert!(e
            .search(Vertical::Web, "", &SearchConfig::default(), 10)
            .is_empty());
    }

    #[test]
    fn k_truncates() {
        let e = engine();
        let rs = e.search(Vertical::Web, "game", &SearchConfig::default(), 3);
        assert!(rs.len() <= 3);
    }

    #[test]
    fn results_sorted_by_score() {
        let e = engine();
        let rs = e.search(Vertical::Web, "game review", &SearchConfig::default(), 10);
        for w in rs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn did_you_mean_corrects_entity_typos() {
        let e = engine();
        let dym = e.did_you_mean("galactik raiders reviw");
        assert_eq!(dym.as_deref(), Some("galactic raider review"));
        assert_eq!(e.did_you_mean("galactic raiders"), None);
    }

    #[test]
    fn click_feedback_promotes_clicked_urls() {
        let mut e = engine();
        let baseline = e.search(Vertical::Web, "game review", &SearchConfig::default(), 10);
        assert!(baseline.len() >= 2);
        // Fake a community that always clicks the currently-second
        // result.
        let target = baseline[1].url.clone();
        let logs: Vec<crate::logs::LogEntry> = (0..50)
            .map(|i| crate::logs::LogEntry {
                session: i,
                query: "game review".into(),
                url: target.clone(),
                domain: baseline[1].domain.clone(),
                position: 1,
                timestamp: 0,
            })
            .collect();
        e.apply_click_feedback(&logs, 1.0);
        assert_eq!(e.click_boosted_urls(), 1);
        let boosted = e.search(Vertical::Web, "game review", &SearchConfig::default(), 10);
        let pos = |rs: &[WebResult], url: &str| rs.iter().position(|r| r.url == url);
        assert!(
            pos(&boosted, &target).unwrap() < pos(&baseline, &target).unwrap()
                || pos(&boosted, &target) == Some(0),
            "clicked URL must rise"
        );
    }

    #[test]
    fn click_feedback_clears_on_empty_logs() {
        let mut e = engine();
        let logs = vec![crate::logs::LogEntry {
            session: 0,
            query: "q".into(),
            url: "http://x/y".into(),
            domain: "x".into(),
            position: 0,
            timestamp: 0,
        }];
        e.apply_click_feedback(&logs, 1.0);
        assert_eq!(e.click_boosted_urls(), 1);
        e.apply_click_feedback(&[], 1.0);
        assert_eq!(e.click_boosted_urls(), 0);
    }

    fn crawled_page(e: &SearchEngine, url: &str, title: &str, body: &str) -> Page {
        Page {
            site: 0,
            url: format!("http://{}/{}", e.corpus().sites[0].domain, url),
            title: title.into(),
            body: body.into(),
            links: Vec::new(),
            kind: PageKind::Article,
        }
    }

    #[test]
    fn ingest_makes_new_page_searchable_without_rebuild() {
        let mut e = engine();
        let before = e.doc_count(Vertical::Web);
        let p = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "a zyxwvut adventure story");
        let url = p.url.clone();
        assert_eq!(e.ingest_page(p), Vertical::Web);
        assert_eq!(e.doc_count(Vertical::Web), before + 1);
        let rs = e.search(Vertical::Web, "zyxwvut", &SearchConfig::default(), 5);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].url, url);
        assert!(e.static_rank_of(&url).unwrap() > 0.0, "provisional rank");
    }

    #[test]
    fn reingest_replaces_page_in_place() {
        let mut e = engine();
        let p = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "original body");
        let url = p.url.clone();
        e.ingest_page(p);
        let before = e.doc_count(Vertical::Web);
        let mut p2 = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "rewritten qqzzy body");
        p2.url = url.clone();
        e.ingest_page(p2);
        assert_eq!(e.doc_count(Vertical::Web), before, "replaced, not added");
        assert!(e
            .search(Vertical::Web, "original", &SearchConfig::default(), 5)
            .is_empty());
        let rs = e.search(Vertical::Web, "qqzzy", &SearchConfig::default(), 5);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].url, url);
    }

    #[test]
    fn remove_page_hides_url() {
        let mut e = engine();
        let p = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "a zyxwvut story");
        let url = p.url.clone();
        e.ingest_page(p);
        assert!(e.remove_page(&url));
        assert!(!e.remove_page(&url), "second remove is a no-op");
        assert!(!e.remove_page("http://nosuch.example/x"));
        assert!(e
            .search(Vertical::Web, "zyxwvut", &SearchConfig::default(), 5)
            .is_empty());
    }

    #[test]
    fn maintain_seals_ingested_pages_and_refreshes_speller() {
        let mut e = engine();
        e.set_segment_policy(SegmentPolicy {
            memtable_max_docs: 4096,
            staleness_window_ms: 50,
            merge_fanin: 4,
            near_real_time: false,
        });
        assert_eq!(
            e.did_you_mean("zyxwvuq"),
            None,
            "unknown term, nothing close"
        );
        let p = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "a zyxwvut story");
        e.ingest_page(p);
        let r = e.maintain(100);
        assert!(r.sealed, "staleness window elapsed");
        // The web vertical did work, so the speller was re-snapshotted
        // and now knows the freshly indexed term.
        assert_eq!(e.did_you_mean("zyxwvuq").as_deref(), Some("zyxwvut"));
        // Results are unchanged by sealing.
        let rs = e.search(Vertical::Web, "zyxwvut", &SearchConfig::default(), 5);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn kind_change_moves_page_between_verticals() {
        let mut e = engine();
        let p = crawled_page(&e, "zyx", "Zyxwvut Trailer", "zyxwvut gameplay footage");
        let url = p.url.clone();
        e.ingest_page(p);
        let mut v = crawled_page(&e, "zyx", "Zyxwvut Trailer", "zyxwvut gameplay footage");
        v.url = url.clone();
        v.kind = PageKind::Video { duration_s: 120 };
        assert_eq!(e.ingest_page(v), Vertical::Video);
        assert!(e
            .search(Vertical::Web, "zyxwvut", &SearchConfig::default(), 5)
            .is_empty());
        let rs = e.search(Vertical::Video, "zyxwvut", &SearchConfig::default(), 5);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].duration_s, Some(120));
    }

    #[test]
    fn domain_matching_rules() {
        assert!(domain_matches("gamespot.com", "gamespot.com"));
        assert!(domain_matches("www.gamespot.com", "gamespot.com"));
        assert!(!domain_matches("notgamespot.com", "gamespot.com"));
    }

    fn result_bits(rs: &[WebResult]) -> Vec<(String, u32)> {
        rs.iter()
            .map(|r| (r.url.clone(), r.score.to_bits()))
            .collect()
    }

    /// The snippet an eager pool built for `url`: the vertical's
    /// analyzer over the query's positive words, augmentation terms
    /// included, run on the page body.
    fn eager_snippet(
        e: &SearchEngine,
        v: Vertical,
        q: &str,
        config: &SearchConfig,
        url: &str,
    ) -> String {
        let parsed = Query::parse(q);
        let mut words = parsed.positive_words();
        words.extend(config.augment_terms.iter().map(String::as_str));
        let body = &e.corpus().page_by_url(url).expect("known url").body;
        SnippetGenerator::new(e.analyzer(v), &words).snippet(body)
    }

    #[test]
    fn only_page_results_are_snippeted() {
        let e = engine();
        let config = SearchConfig::default().augment(["gameplay"]);
        let pool = e.search_pool(Vertical::Web, "game review", &config, 3);
        assert!(pool.entries.len() > 3, "the pool is deeper than the page");
        assert!(pool.entries.iter().all(|p| p.result.snippet.is_empty()));
        assert!(pool.snippets.is_some(), "pool carries a snippet source");
        let page = SearchEngine::merge_pools(vec![pool], 3);
        assert_eq!(page.len(), 3);
        for r in &page {
            assert!(!r.snippet.is_empty());
            assert_eq!(
                r.snippet,
                eager_snippet(&e, Vertical::Web, "game review", &config, &r.url)
            );
        }
    }

    #[test]
    fn cluster_shards_share_one_page_table() {
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 3,
            ..CorpusConfig::default()
        });
        let mut shards = SearchEngine::build_cluster(&corpus, 3, 1);
        assert!(shards
            .windows(2)
            .all(|w| Arc::ptr_eq(&w[0].corpus, &w[1].corpus)));
        // Ingest copies on write: the other shards keep the old table.
        let page = crawled_page(&shards[0], "zyx", "Zyxwvut", "a zyxwvut story");
        shards[0].ingest_page(page);
        assert!(!Arc::ptr_eq(&shards[0].corpus, &shards[1].corpus));
        assert!(Arc::ptr_eq(&shards[1].corpus, &shards[2].corpus));
        assert_eq!(shards[0].corpus().pages.len(), corpus.pages.len() + 1);
        assert_eq!(shards[1].corpus().pages.len(), corpus.pages.len());
    }

    #[test]
    fn cluster_merge_is_bit_identical_to_single_engine() {
        let cfg = CorpusConfig {
            sites_per_topic: 3,
            pages_per_site: 6,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]);
        let corpus = Corpus::generate(&cfg);
        let single = SearchEngine::new(corpus.clone());
        let configs = [
            SearchConfig::default(),
            SearchConfig::default().restrict_to(["gamespot.com", "ign.com"]),
            SearchConfig::default()
                .augment(["review"])
                .prefer(["ign.com"]),
        ];
        for n in [1usize, 2, 3, 5] {
            let shards = SearchEngine::build_cluster(&corpus, n, 1);
            for v in Vertical::ALL {
                for q in [
                    "Galactic Raiders",
                    "game review",
                    "+space farm",
                    "\"Farm Story\"",
                ] {
                    for (ci, config) in configs.iter().enumerate() {
                        for k in [3usize, 10] {
                            let want = single.search(v, q, config, k);
                            let pools = shards
                                .iter()
                                .map(|e| e.search_pool(v, q, config, k))
                                .collect();
                            let got = SearchEngine::merge_pools(pools, k);
                            let at =
                                format!("vertical {v:?} query {q:?} config {ci} k {k} shards {n}");
                            assert_eq!(result_bits(&want), result_bits(&got), "{at}");
                            assert_eq!(want, got, "{at}");
                            for r in &got {
                                assert_eq!(
                                    r.snippet,
                                    eager_snippet(&single, v, q, config, &r.url),
                                    "{at}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shard_pool_exports_threshold_bound() {
        let cfg = CorpusConfig {
            sites_per_topic: 4,
            pages_per_site: 8,
            ..CorpusConfig::default()
        };
        let corpus = Corpus::generate(&cfg);
        let e = SearchEngine::new(corpus);
        // k=1 → pool depth 32; a broad query fills the pool and the
        // bound equals the last raw score; a narrow one leaves it
        // short with an unbounded (NEG_INFINITY) certificate.
        let pool = e.search_pool(Vertical::Web, "game", &SearchConfig::default(), 1);
        if pool.entries.len() >= 32 {
            assert_eq!(pool.bound, pool.entries.last().unwrap().raw);
        } else {
            assert_eq!(pool.bound, f32::NEG_INFINITY);
        }
    }
}
