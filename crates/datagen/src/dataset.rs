//! The data-set catalog reproducing the paper's Table 1.
//!
//! Seven data sets feed the seventeen representative workloads; each entry
//! records the original source, our synthetic generator, and the default
//! scale used in the reproduction.

use std::fmt;

/// Identifier of one of the seven source data sets (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataSetId {
    /// Row 1: Wikipedia entries (4.3 M English articles) → Zipf text.
    Wikipedia,
    /// Row 2: Amazon movie reviews (7.9 M reviews) → labelled Zipf text.
    AmazonReviews,
    /// Row 3: Google web graph (875 713 nodes, 5 105 039 edges) → power-law graph.
    GoogleWebGraph,
    /// Row 4: Facebook social network (4 039 nodes, 88 234 edges) → power-law graph.
    FacebookSocial,
    /// Row 5: E-commerce transactions (order + item tables) → relational tables.
    EcommerceTransactions,
    /// Row 6: ProfSearch person résumés (278 956 résumés) → relational table.
    ProfSearchResumes,
    /// Row 7: TPC-DS web tables (26 tables; we model the 4 the queries touch).
    TpcdsWeb,
}

impl DataSetId {
    /// All seven data sets in Table 1 order.
    pub const ALL: [DataSetId; 7] = [
        DataSetId::Wikipedia,
        DataSetId::AmazonReviews,
        DataSetId::GoogleWebGraph,
        DataSetId::FacebookSocial,
        DataSetId::EcommerceTransactions,
        DataSetId::ProfSearchResumes,
        DataSetId::TpcdsWeb,
    ];
}

impl fmt::Display for DataSetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataSetId::Wikipedia => "Wikipedia Entries",
            DataSetId::AmazonReviews => "Amazon Movie Reviews",
            DataSetId::GoogleWebGraph => "Google Web Graph",
            DataSetId::FacebookSocial => "Facebook Social Network",
            DataSetId::EcommerceTransactions => "E-commerce Transaction Data",
            DataSetId::ProfSearchResumes => "ProfSearch Person Resumes",
            DataSetId::TpcdsWeb => "TPC-DS WebTable Data",
        };
        f.write_str(name)
    }
}

/// One row of the reproduced Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSetDescriptor {
    /// Which data set.
    pub id: DataSetId,
    /// The paper's description of the original data.
    pub original: &'static str,
    /// The generator standing in for BDGS.
    pub generator: &'static str,
    /// Default record count at reproduction scale.
    pub default_records: usize,
}

/// The catalog of all seven data sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataSetCatalog;

impl DataSetCatalog {
    /// Creates the catalog.
    pub fn new() -> Self {
        Self
    }

    /// Descriptor for one data set.
    pub fn descriptor(&self, id: DataSetId) -> DataSetDescriptor {
        let (original, generator, default_records) = match id {
            DataSetId::Wikipedia => (
                "4,300,000 English articles",
                "Zipf text generator (text::TextGen)",
                4_000,
            ),
            DataSetId::AmazonReviews => (
                "7,911,684 reviews",
                "labelled Zipf text (table::labelled_documents)",
                4_000,
            ),
            DataSetId::GoogleWebGraph => (
                "875,713 nodes, 5,105,039 edges",
                "preferential attachment (graph::GraphGen)",
                8_000,
            ),
            DataSetId::FacebookSocial => (
                "4,039 nodes, 88,234 edges",
                "preferential attachment (graph::GraphGen)",
                4_039,
            ),
            DataSetId::EcommerceTransactions => (
                "orders: 4 cols x 38,658 rows; items: 6 cols x 242,735 rows",
                "table::ecommerce_orders + table::ecommerce_items",
                8_000,
            ),
            DataSetId::ProfSearchResumes => ("278,956 resumes", "table::profsearch_resumes", 6_000),
            DataSetId::TpcdsWeb => ("26 tables (DSGen)", "tpcds::generate (star schema)", 20_000),
        };
        DataSetDescriptor {
            id,
            original,
            generator,
            default_records,
        }
    }

    /// Iterator over all descriptors in Table 1 order.
    pub fn iter(&self) -> impl Iterator<Item = DataSetDescriptor> + '_ {
        DataSetId::ALL.iter().map(|&id| self.descriptor(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_seven_rows() {
        let c = DataSetCatalog::new();
        assert_eq!(c.iter().count(), 7);
    }

    #[test]
    fn descriptors_are_consistent() {
        let c = DataSetCatalog::new();
        for d in c.iter() {
            assert_eq!(c.descriptor(d.id), d);
            assert!(d.default_records > 0);
            assert!(!d.original.is_empty());
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(DataSetId::TpcdsWeb.to_string(), "TPC-DS WebTable Data");
        assert_eq!(DataSetId::Wikipedia.to_string(), "Wikipedia Entries");
    }
}
