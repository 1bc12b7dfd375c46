//! Shard search RPC: the wire codec and the per-node service.
//!
//! A shard node is just another simulated service: it registers on the
//! transport like the pricing or inventory services do, speaks the
//! same string-keyed record protocol, and therefore composes with
//! every resilience mechanism the transport stack already has —
//! breakers, retries, fault windows. What makes it special is the
//! codec: raw BM25 scores cross the wire as IEEE-754 bit patterns
//! (see [`symphony_services::rpc`]), because the gather side re-sorts
//! merged candidates by those floats and a lossy decimal round-trip
//! would reorder ties and break the bit-identity guarantee.
//!
//! Pool entries cross the wire without snippets: the gather side
//! builds them after the merge, for the results that reach the page.

use std::sync::Arc;

use symphony_services::rpc::{decode_f32, decode_i64, decode_u64, encode_f32};
use symphony_services::{
    OperationDesc, Protocol, Service, ServiceDescription, ServiceFault, ServiceRecord,
    ServiceRequest, ServiceResponse,
};
use symphony_web::{PoolEntry, SearchConfig, SearchEngine, ShardPool, Vertical, WebResult};

/// Separator for list-valued request params (domains, terms). Not a
/// character that appears in domain names or analyzed query terms.
const LIST_SEP: char = '\x1f';

/// Parse a vertical from its lowercase wire name.
pub fn vertical_from_name(name: &str) -> Option<Vertical> {
    Vertical::ALL.into_iter().find(|v| v.name() == name)
}

/// Build the `/search` request for one scatter leg.
pub fn search_request(
    vertical: Vertical,
    query: &str,
    config: &SearchConfig,
    k: usize,
) -> ServiceRequest {
    let k = k.to_string();
    let sites = config.site_restrict.join(&LIST_SEP.to_string());
    let augment = config.augment_terms.join(&LIST_SEP.to_string());
    let prefer = config.prefer_sites.join(&LIST_SEP.to_string());
    ServiceRequest::get(
        "/search",
        &[
            ("vertical", vertical.name()),
            ("q", query),
            ("k", &k),
            ("sites", &sites),
            ("augment", &augment),
            ("prefer", &prefer),
        ],
    )
}

fn split_list(raw: &str) -> Vec<String> {
    if raw.is_empty() {
        Vec::new()
    } else {
        raw.split(LIST_SEP).map(str::to_string).collect()
    }
}

fn field<'a>(record: &'a ServiceRecord, name: &str) -> Option<&'a str> {
    record
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Encode a shard's candidate pool as wire records: one header record
/// carrying the shard's MaxScore merge bound, then one record per
/// pool entry in pool order. Snippets and the pool's snippet source
/// are not sent.
pub fn encode_pool(pool: &ShardPool) -> ServiceResponse {
    let mut records = Vec::with_capacity(pool.entries.len() + 1);
    records.push(vec![
        ("kind".to_string(), "pool".to_string()),
        ("bound".to_string(), encode_f32(pool.bound)),
        ("n".to_string(), pool.entries.len().to_string()),
    ]);
    for e in &pool.entries {
        let r = &e.result;
        let mut rec: ServiceRecord = vec![
            ("page".to_string(), e.page.to_string()),
            ("raw".to_string(), encode_f32(e.raw)),
            ("score".to_string(), encode_f32(r.score)),
            ("url".to_string(), r.url.clone()),
            ("title".to_string(), r.title.clone()),
            ("domain".to_string(), r.domain.clone()),
        ];
        if let Some(src) = &r.image_src {
            rec.push(("image_src".to_string(), src.clone()));
        }
        if let Some(d) = r.duration_s {
            rec.push(("duration_s".to_string(), d.to_string()));
        }
        if let Some(d) = r.date {
            rec.push(("date".to_string(), d.to_string()));
        }
        records.push(rec);
    }
    ServiceResponse::records(records)
}

/// Decode a pool framed by [`encode_pool`]. `None` on any malformed
/// record — a garbled shard answer must read as a failed shard, never
/// as a silently truncated pool. The decoded pool has no snippet
/// source; the gather side attaches one before it merges.
pub fn decode_pool(response: &ServiceResponse) -> Option<ShardPool> {
    let header = response.records.first()?;
    if field(header, "kind") != Some("pool") {
        return None;
    }
    let bound = decode_f32(field(header, "bound")?)?;
    let n: usize = field(header, "n")?.parse().ok()?;
    let body = &response.records[1..];
    if body.len() != n {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for rec in body {
        entries.push(PoolEntry {
            page: decode_u64(field(rec, "page")?)? as usize,
            raw: decode_f32(field(rec, "raw")?)?,
            result: WebResult {
                url: field(rec, "url")?.to_string(),
                title: field(rec, "title")?.to_string(),
                snippet: String::new(),
                domain: field(rec, "domain")?.to_string(),
                score: decode_f32(field(rec, "score")?)?,
                image_src: field(rec, "image_src").map(str::to_string),
                duration_s: field(rec, "duration_s").and_then(|v| decode_u64(v).map(|d| d as u32)),
                date: field(rec, "date").and_then(decode_i64),
            },
        });
    }
    Some(ShardPool {
        entries,
        bound,
        snippets: None,
    })
}

/// One shard node: serves `/search` over its slice of the corpus,
/// returning the shard-local candidate pool plus merge bound.
#[derive(Debug, Clone)]
pub struct ShardSearchService {
    engine: Arc<SearchEngine>,
}

impl ShardSearchService {
    /// Node over one shard's engine (primary and replica wrap clones
    /// of the same `Arc`).
    pub fn new(engine: Arc<SearchEngine>) -> ShardSearchService {
        ShardSearchService { engine }
    }
}

impl Service for ShardSearchService {
    fn describe(&self) -> ServiceDescription {
        ServiceDescription {
            name: "Shard search node".into(),
            protocol: Protocol::Rest,
            operations: vec![OperationDesc {
                name: "/search".into(),
                params: vec![
                    "vertical".into(),
                    "q".into(),
                    "k".into(),
                    "sites".into(),
                    "augment".into(),
                    "prefer".into(),
                ],
                returns: vec![
                    "page".into(),
                    "raw".into(),
                    "score".into(),
                    "url".into(),
                    "title".into(),
                    "domain".into(),
                ],
            }],
        }
    }

    fn handle(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
        let bad = |msg: &str| ServiceFault {
            code: 400,
            message: msg.into(),
        };
        let vertical = request
            .param("vertical")
            .and_then(vertical_from_name)
            .ok_or_else(|| bad("bad vertical"))?;
        let query = request.param("q").ok_or_else(|| bad("missing q"))?;
        let k: usize = request
            .param("k")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad k"))?;
        let config = SearchConfig {
            site_restrict: split_list(request.param("sites").unwrap_or_default()),
            augment_terms: split_list(request.param("augment").unwrap_or_default()),
            prefer_sites: split_list(request.param("prefer").unwrap_or_default()),
        };
        let pool = self.engine.search_pool(vertical, query, &config, k);
        Ok(encode_pool(&pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a_pool() -> ShardPool {
        ShardPool {
            entries: vec![
                PoolEntry {
                    page: 7,
                    raw: 3.25,
                    result: WebResult {
                        url: "https://ign.com/raiders".into(),
                        title: "Galactic Raiders review".into(),
                        snippet: String::new(),
                        domain: "ign.com".into(),
                        score: 4.5,
                        image_src: None,
                        duration_s: None,
                        date: Some(1_700_000_000),
                    },
                },
                PoolEntry {
                    page: 0,
                    raw: f32::from_bits(0x3f80_0001), // exercises exactness
                    result: WebResult {
                        url: "https://tube.example/clip".into(),
                        title: "Trailer".into(),
                        snippet: String::new(),
                        domain: "tube.example".into(),
                        score: 0.125,
                        image_src: Some("https://tube.example/clip.jpg".into()),
                        duration_s: Some(214),
                        date: None,
                    },
                },
            ],
            bound: 2.875,
            snippets: None,
        }
    }

    #[test]
    fn pool_roundtrips_bit_exactly() {
        let pool = a_pool();
        let decoded = decode_pool(&encode_pool(&pool)).expect("roundtrip");
        assert_eq!(decoded.bound.to_bits(), pool.bound.to_bits());
        assert_eq!(decoded.entries.len(), pool.entries.len());
        for (d, e) in decoded.entries.iter().zip(&pool.entries) {
            assert_eq!(d.page, e.page);
            assert_eq!(d.raw.to_bits(), e.raw.to_bits());
            assert_eq!(d.result.score.to_bits(), e.result.score.to_bits());
            assert_eq!(d.result, e.result);
        }
        assert_eq!(decoded, pool, "no snippet source crosses the wire");
    }

    #[test]
    fn frames_carry_no_snippets() {
        let resp = encode_pool(&a_pool());
        assert!(resp.records.iter().flatten().all(|(k, _)| k != "snippet"));
    }

    #[test]
    fn garbled_records_are_rejected() {
        let mut resp = encode_pool(&a_pool());
        resp.records[1].retain(|(k, _)| k != "raw");
        assert!(decode_pool(&resp).is_none(), "entry missing its raw score");
        let mut resp = encode_pool(&a_pool());
        resp.records[2][0].1 = "not-a-page".into();
        assert!(decode_pool(&resp).is_none(), "unparsable page index");
        let mut resp = encode_pool(&a_pool());
        resp.records[0][0].1 = "rows".into();
        assert!(decode_pool(&resp).is_none(), "wrong header kind");
    }

    #[test]
    fn nonfinite_bounds_survive_the_wire() {
        let mut pool = a_pool();
        pool.bound = f32::NEG_INFINITY;
        let decoded = decode_pool(&encode_pool(&pool)).expect("roundtrip");
        assert!(decoded.bound.is_infinite() && decoded.bound < 0.0);
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let mut resp = encode_pool(&a_pool());
        resp.records.pop();
        assert!(decode_pool(&resp).is_none(), "body shorter than header n");
        assert!(decode_pool(&ServiceResponse::empty()).is_none());
    }

    #[test]
    fn config_lists_survive_the_request_framing() {
        let config = SearchConfig::default()
            .restrict_to(["gamespot.com", "ign.com"])
            .augment(["review"])
            .prefer(["ign.com"]);
        let req = search_request(Vertical::News, "space raiders", &config, 12);
        assert_eq!(req.param("vertical"), Some("news"));
        assert_eq!(req.param("q"), Some("space raiders"));
        assert_eq!(req.param("k"), Some("12"));
        assert_eq!(
            split_list(req.param("sites").unwrap()),
            vec!["gamespot.com".to_string(), "ign.com".to_string()]
        );
        assert_eq!(split_list(req.param("augment").unwrap()), vec!["review"]);
        assert_eq!(split_list(req.param("prefer").unwrap()), vec!["ign.com"]);
        assert_eq!(split_list(""), Vec::<String>::new());
    }
}
