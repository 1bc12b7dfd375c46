//! Interaction telemetry stays bounded in memory over long runs.
//!
//! With interaction logging on, the live heap after 22 000 L1-hit
//! queries and clicks is within 64 KiB of the live heap after the first
//! 2 000: once the referral-audit ring has filled, serving and clicking
//! keep no per-event state. The binary counts live bytes through its
//! own global allocator, so it holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use symphony_core::app::AppBuilder;
use symphony_core::hosting::{Platform, QuotaConfig};
use symphony_core::source::DataSourceDef;
use symphony_designer::{Canvas, Element};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;
use symphony_web::{Corpus, CorpusConfig, SearchEngine};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the accounting touches only an atomic, never the memory, and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> isize {
    // Statistics only: Relaxed publishes no other data.
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn logged_l1_hits_and_clicks_keep_the_heap_flat() {
    let engine = SearchEngine::new(Corpus::generate(&CorpusConfig {
        sites_per_topic: 1,
        pages_per_site: 2,
        ..CorpusConfig::default()
    }));
    // One query per virtual second keeps the request-metering window
    // at about 60 timestamps; a day-long TTL keeps every query an L1 hit.
    let mut platform = Platform::new(engine).with_quotas(QuotaConfig {
        requests_per_minute: 1_000,
        cache_ttl_ms: 86_400_000,
        ..QuotaConfig::default()
    });
    let (tenant, key) = platform.create_tenant("GamerQueen");
    let (table, _) = ingest(
        "inventory",
        "title,genre\nGalactic Raiders,space shooter\nFarm Story,farming sim\nSpace Trader,space sim\n",
        DataFormat::Csv,
    )
    .unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("genre", 1.0)])
        .unwrap();
    platform.upload_table(tenant, &key, indexed).unwrap();
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("inventory", Element::text("{title}"), 10),
        )
        .unwrap();
    let config = AppBuilder::new("GamerQueen", tenant)
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .layout(canvas)
        .build()
        .unwrap();
    assert!(config.monetization.log_interactions);
    let app = platform.register_app(config).unwrap();
    platform.publish(app).unwrap();

    let queries = ["space", "farming", "shooter", "sim"];
    let serve = |n: usize| {
        for i in 0..n {
            platform.advance_clock(1_000);
            let q = queries[i % queries.len()];
            let resp = platform.query(app, q).unwrap();
            platform.click(app, q, &resp.impressions[0]).unwrap();
        }
    };

    serve(2_000);
    let before = live_bytes();
    serve(20_000);
    let grown = live_bytes() - before;

    let summary = platform.traffic_summary(app).unwrap();
    assert_eq!(summary.queries, 22_000);
    assert_eq!(summary.clicks, 22_000);
    assert!(summary.impressions >= 22_000);
    assert_eq!(platform.cache_stats(app).unwrap().misses, 4);
    assert!(
        grown < 64 << 10,
        "live heap grew by {grown} bytes over 20 000 logged hits and clicks"
    );
}
