//! Output checkers with their own reference. The ranking here is written
//! apart from the serving path: it selects the top `k` by rating one at a
//! time and then insertion-sorts them by reliability, over scores taken
//! straight from `Rrre::predict`, so a fault shared by the engine and
//! `rrre_core::rank_candidates` cannot hide.

use rrre_core::Prediction;
use rrre_wire::{ExplanationDto, Response};
use std::cmp::Ordering;
use std::collections::HashSet;

/// The reliability below which an explanation must be flagged `filtered`.
pub const FILTER_BELOW: f32 = 0.5;

/// `a` ranks before `b` on `score` (higher first), ties on the key
/// ascending.
fn ahead<K: Ord>(a: &(K, Prediction), b: &(K, Prediction), score: fn(&Prediction) -> f32) -> bool {
    match score(&a.1).total_cmp(&score(&b.1)) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a.0 < b.0,
    }
}

/// The paper's two-stage ranking (§III-B): the `k` best by predicted
/// rating, then ordered by predicted reliability; ties on the key
/// ascending in both stages.
pub fn reference_ranking<K: Ord + Copy>(
    scored: &[(K, Prediction)],
    k: usize,
) -> Vec<(K, Prediction)> {
    let mut left: Vec<(K, Prediction)> = scored.to_vec();
    let mut top: Vec<(K, Prediction)> = Vec::with_capacity(k.min(left.len()));
    while top.len() < k && !left.is_empty() {
        let mut best = 0;
        for i in 1..left.len() {
            if ahead(&left[i], &left[best], |p| p.rating) {
                best = i;
            }
        }
        top.push(left.swap_remove(best));
    }
    for i in 1..top.len() {
        let mut j = i;
        while j > 0 && ahead(&top[j], &top[j - 1], |p| p.reliability) {
            top.swap(j, j - 1);
            j -= 1;
        }
    }
    top
}

fn same_bits(what: &str, got: f32, want: f32) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, reference {want}"))
    }
}

fn ok_response(resp: &Response) -> Result<(), String> {
    if resp.ok {
        Ok(())
    } else {
        Err(format!("error response: {:?} {:?}", resp.kind, resp.error))
    }
}

/// `Recommend`: `min(k, n_items)` distinct in-range items; when a
/// reference is given, exactly its items, order and scores.
pub fn check_recommend(
    resp: &Response,
    n_items: usize,
    k: usize,
    reference: Option<&[(u32, Prediction)]>,
) -> Result<(), String> {
    ok_response(resp)?;
    let recs = resp
        .recommendations
        .as_ref()
        .ok_or("Recommend answered without recommendations")?;
    if recs.len() != k.min(n_items) {
        return Err(format!(
            "Recommend returned {} items, expected {}",
            recs.len(),
            k.min(n_items)
        ));
    }
    let mut seen = HashSet::new();
    for r in recs {
        if r.item as usize >= n_items {
            return Err(format!(
                "Recommend returned item {} of a {n_items}-item catalog",
                r.item
            ));
        }
        if !seen.insert(r.item) {
            return Err(format!("Recommend returned item {} twice", r.item));
        }
    }
    if let Some(reference) = reference {
        for (pos, (r, (item, p))) in recs.iter().zip(reference).enumerate() {
            if r.item != *item {
                return Err(format!(
                    "Recommend position {pos}: item {}, reference {item}",
                    r.item
                ));
            }
            same_bits(&format!("Recommend item {item} rating"), r.rating, p.rating)?;
            same_bits(
                &format!("Recommend item {item} reliability"),
                r.reliability,
                p.reliability,
            )?;
        }
    }
    Ok(())
}

/// `Predict`: bit for bit the reference prediction.
pub fn check_predict(resp: &Response, want: Prediction) -> Result<(), String> {
    ok_response(resp)?;
    let p = resp
        .prediction
        .as_ref()
        .ok_or("Predict answered without a prediction")?;
    same_bits("Predict rating", p.rating, want.rating)?;
    same_bits("Predict reliability", p.reliability, want.reliability)
}

fn check_flag(e: &ExplanationDto) -> Result<(), String> {
    if e.filtered != (e.reliability < FILTER_BELOW) {
        return Err(format!(
            "Explain review {}: filtered={} at reliability {}",
            e.review_idx, e.filtered, e.reliability
        ));
    }
    Ok(())
}

/// `Explain` against a reference ranking of the item's reviews: only the
/// item's own reviews (`item_of` maps a review index to its item), in
/// reference order with reference scores, `filtered` exactly when
/// reliability < 0.5.
pub fn check_explain(
    resp: &Response,
    item: u32,
    reference: &[(usize, Prediction)],
    item_of: impl Fn(usize) -> Option<u32>,
) -> Result<(), String> {
    ok_response(resp)?;
    let list = resp
        .explanations
        .as_ref()
        .ok_or("Explain answered without explanations")?;
    if list.len() != reference.len() {
        return Err(format!(
            "Explain listed {} reviews, reference {}",
            list.len(),
            reference.len()
        ));
    }
    for (pos, (e, (ri, p))) in list.iter().zip(reference).enumerate() {
        if item_of(e.review_idx) != Some(item) {
            return Err(format!(
                "Explain for item {item} listed review {} of another item",
                e.review_idx
            ));
        }
        if e.review_idx != *ri {
            return Err(format!(
                "Explain position {pos}: review {}, reference {ri}",
                e.review_idx
            ));
        }
        same_bits(&format!("Explain review {ri} rating"), e.rating, p.rating)?;
        same_bits(
            &format!("Explain review {ri} reliability"),
            e.reliability,
            p.reliability,
        )?;
        check_flag(e)?;
    }
    Ok(())
}

/// `Explain` while the item's reviews are still changing, so no fixed
/// reference exists: at most `k` distinct reviews, each one the item's own
/// (`owns`), ordered by reliability (ties on review index ascending), with
/// `filtered` exactly when reliability < 0.5.
pub fn check_explain_live(
    resp: &Response,
    item: u32,
    k: usize,
    owns: impl Fn(&ExplanationDto) -> bool,
) -> Result<(), String> {
    ok_response(resp)?;
    let list = resp
        .explanations
        .as_ref()
        .ok_or("Explain answered without explanations")?;
    if list.is_empty() || list.len() > k {
        return Err(format!(
            "Explain listed {} reviews, expected 1..={k}",
            list.len()
        ));
    }
    let mut seen = HashSet::new();
    for (pos, e) in list.iter().enumerate() {
        if !owns(e) {
            return Err(format!(
                "Explain for item {item} listed review {} of another item",
                e.review_idx
            ));
        }
        if !seen.insert(e.review_idx) {
            return Err(format!("Explain listed review {} twice", e.review_idx));
        }
        check_flag(e)?;
        if pos > 0 {
            let prev = &list[pos - 1];
            let in_order = prev.reliability > e.reliability
                || (prev.reliability == e.reliability && prev.review_idx < e.review_idx);
            if !in_order {
                return Err(format!(
                    "Explain position {pos} is out of reliability order"
                ));
            }
        }
    }
    Ok(())
}

/// An `IngestReview` ack for `seq`, fresh or a resend's duplicate ack.
pub fn check_ack(resp: &Response, seq: u64, duplicate: bool) -> Result<(), String> {
    ok_response(resp)?;
    let ack = resp
        .ingest
        .as_ref()
        .ok_or("IngestReview answered without an ack")?;
    if ack.seq != seq || ack.duplicate != duplicate {
        return Err(format!(
            "IngestReview seq {seq}: acked seq {} duplicate={}, expected duplicate={duplicate}",
            ack.seq, ack.duplicate
        ));
    }
    Ok(())
}

/// Every fresh write applied exactly once: the engine's `ingested` counter
/// and the review count of the directory reopened from disk both match the
/// fresh acks.
pub fn check_ingest_totals(
    fresh_acks: u64,
    ingested: u64,
    base_reviews: usize,
    reopened_reviews: usize,
) -> Result<(), String> {
    if ingested != fresh_acks {
        return Err(format!(
            "engine counted {ingested} ingested reviews for {fresh_acks} fresh acks"
        ));
    }
    if reopened_reviews != base_reviews + fresh_acks as usize {
        return Err(format!(
            "reopened artifact holds {reopened_reviews} reviews, expected {base_reviews} + {fresh_acks}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_wire::{ExplanationDto, IngestDto, PredictionDto, RecommendationDto};

    fn p(rating: f32, reliability: f32) -> Prediction {
        Prediction {
            rating,
            reliability,
        }
    }

    fn scored() -> Vec<(u32, Prediction)> {
        vec![
            (0, p(3.0, 0.9)),
            (1, p(4.5, 0.2)),
            (2, p(4.5, 0.7)),
            (3, p(2.0, 0.99)),
            (4, p(4.0, 0.7)),
            (5, p(1.5, 0.5)),
        ]
    }

    fn recommend_response(list: &[(u32, Prediction)]) -> Response {
        let mut resp = Response::ok(Some(1));
        resp.recommendations = Some(
            list.iter()
                .map(|&(item, p)| RecommendationDto {
                    item,
                    item_name: format!("item-{item}"),
                    rating: p.rating,
                    reliability: p.reliability,
                })
                .collect(),
        );
        resp
    }

    fn explain_response(list: &[(usize, Prediction)]) -> Response {
        let mut resp = Response::ok(Some(2));
        resp.explanations = Some(
            list.iter()
                .map(|&(ri, p)| ExplanationDto {
                    review_idx: ri,
                    user: ri as u32,
                    user_name: format!("user-{ri}"),
                    text: "text".into(),
                    rating: p.rating,
                    reliability: p.reliability,
                    filtered: p.reliability < FILTER_BELOW,
                })
                .collect(),
        );
        resp
    }

    #[test]
    fn reference_keeps_top_k_by_rating_then_orders_by_reliability() {
        let top = reference_ranking(&scored(), 3);
        // Top three by rating: 1 and 2 (4.5, tie broken on key), then 4.
        // By reliability: 2 (0.7) and 4 (0.7) tie → key order, then 1.
        let keys: Vec<u32> = top.iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![2, 4, 1]);
        assert_eq!(reference_ranking(&scored(), 10).len(), 6);
    }

    #[test]
    fn recommend_checker_accepts_the_reference_and_rejects_a_swap() {
        let reference = reference_ranking(&scored(), 3);
        assert!(check_recommend(&recommend_response(&reference), 6, 3, Some(&reference)).is_ok());
        let mut swapped = reference.clone();
        swapped.swap(0, 1);
        let err =
            check_recommend(&recommend_response(&swapped), 6, 3, Some(&reference)).unwrap_err();
        assert!(err.contains("position 0"), "{err}");
    }

    #[test]
    fn recommend_checker_rejects_wrong_k_duplicates_and_out_of_range() {
        let reference = reference_ranking(&scored(), 3);
        let short = &reference[..2];
        assert!(check_recommend(&recommend_response(short), 6, 3, None).is_err());
        let dup = vec![reference[0], reference[0], reference[1]];
        assert!(check_recommend(&recommend_response(&dup), 6, 3, None).is_err());
        let far = vec![reference[0], reference[1], (9, p(4.0, 0.1))];
        assert!(check_recommend(&recommend_response(&far), 6, 3, None).is_err());
    }

    #[test]
    fn recommend_checker_rejects_a_changed_score() {
        let reference = reference_ranking(&scored(), 3);
        let mut off = reference.clone();
        off[1].1.rating = f32::from_bits(off[1].1.rating.to_bits() + 1);
        assert!(check_recommend(&recommend_response(&off), 6, 3, Some(&reference)).is_err());
    }

    #[test]
    fn predict_checker_is_bit_exact() {
        let mut resp = Response::ok(Some(3));
        resp.prediction = Some(PredictionDto {
            rating: 3.25,
            reliability: 0.75,
        });
        assert!(check_predict(&resp, p(3.25, 0.75)).is_ok());
        assert!(check_predict(&resp, p(3.25, f32::from_bits(0.75f32.to_bits() + 1))).is_err());
        assert!(check_predict(&Response::error(Some(3), "no"), p(3.25, 0.75)).is_err());
    }

    /// Reviews 10..16 belong to item 7; review 99 to item 8.
    fn item_of(ri: usize) -> Option<u32> {
        match ri {
            10..=15 => Some(7),
            99 => Some(8),
            _ => None,
        }
    }

    fn explain_reference() -> Vec<(usize, Prediction)> {
        let scored: Vec<(usize, Prediction)> = vec![
            (10, p(4.0, 0.3)),
            (11, p(5.0, 0.8)),
            (12, p(2.0, 0.9)),
            (13, p(4.5, 0.6)),
        ];
        reference_ranking(&scored, 3)
    }

    #[test]
    fn explain_checker_rejects_a_foreign_review() {
        let reference = explain_reference();
        assert!(check_explain(&explain_response(&reference), 7, &reference, item_of).is_ok());
        let mut foreign = reference.clone();
        foreign[1].0 = 99;
        let err = check_explain(&explain_response(&foreign), 7, &reference, item_of).unwrap_err();
        assert!(err.contains("another item"), "{err}");
        let owns = |e: &ExplanationDto| item_of(e.review_idx) == Some(7);
        assert!(check_explain_live(&explain_response(&reference), 7, 3, owns).is_ok());
        assert!(check_explain_live(&explain_response(&foreign), 7, 3, owns).is_err());
    }

    #[test]
    fn explain_checker_rejects_swaps_wrong_k_and_wrong_flags() {
        let reference = explain_reference();
        let mut swapped = reference.clone();
        swapped.swap(0, 2);
        assert!(check_explain(&explain_response(&swapped), 7, &reference, item_of).is_err());
        let owns = |e: &ExplanationDto| item_of(e.review_idx) == Some(7);
        assert!(check_explain_live(&explain_response(&swapped), 7, 3, owns).is_err());
        assert!(check_explain(&explain_response(&reference[..2]), 7, &reference, item_of).is_err());
        assert!(check_explain_live(&explain_response(&reference), 7, 2, owns).is_err());
        let mut flipped = explain_response(&reference);
        let last = flipped.explanations.as_mut().unwrap().last_mut().unwrap();
        last.filtered = !last.filtered;
        assert!(check_explain(&flipped, 7, &reference, item_of).is_err());
        assert!(check_explain_live(&flipped, 7, 3, owns).is_err());
    }

    fn ack(seq: u64, duplicate: bool) -> Response {
        let mut resp = Response::ok(Some(seq));
        resp.ingest = Some(IngestDto { seq, duplicate });
        resp
    }

    #[test]
    fn ingest_checkers_reject_a_double_applied_write() {
        assert!(check_ack(&ack(5, false), 5, false).is_ok());
        assert!(check_ack(&ack(5, true), 5, true).is_ok());
        // A resend applied a second time acks fresh instead of duplicate.
        assert!(check_ack(&ack(5, false), 5, true).is_err());
        assert!(check_ack(&ack(6, false), 5, false).is_err());
        assert!(check_ingest_totals(40, 40, 6500, 6540).is_ok());
        // One write applied twice: one review too many on disk, or one
        // ingest too many in the engine's counter.
        assert!(check_ingest_totals(40, 40, 6500, 6541).is_err());
        assert!(check_ingest_totals(40, 41, 6500, 6540).is_err());
    }
}
